import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import case_a_params
from penning_chain.constants import CODATA2018
from penning_chain.couplings import (
    coupling_matrix,
    pair_coupling_strengths,
    swap_time,
    uniform_chain,
)
from penning_chain.fidelity_model import (
    BlochAveraging,
    ThermalOccupations,
    TruncationWarning,
    ValidityWarning,
    delta_s,
    delta_s_spread,
    difference_prob,
    error_canonical,
    error_canonical_two_site,
    error_canonical_unaveraged,
    error_residual,
    fd,
    occupation_from_temperature,
    spin_shift,
    thermal_cutoff,
    total_fidelity,
    transition_probabilities,
)
from penning_chain.spin_chain import single_excitation_block
from penning_chain.trap_model import (
    AnomalyMode,
    coulomb_scale,
    derive_quantities,
)

TWO_PI = 2.0 * math.pi


def thermal_prob(m_bar, m):
    """Probability of the m-th Fock state in a thermal state with mean m_bar."""
    ratio = m_bar / (1.0 + m_bar)
    return np.power(ratio, np.asarray(m)) / (1.0 + m_bar)


def residual_four_fold(dq, occ, jxy, mn, ml):
    """E_r and its tail mass from the full thermal sum over (n1, n2, l1, l2)
    up to the cutoffs: the reference for the collapse in ``error_residual``.
    The detunings come from ``delta_s``, independently of the collapsed sum."""
    n = np.arange(mn + 1)
    l = np.arange(ml + 1)
    pn = thermal_prob(occ.n_bar, n)
    pl = thermal_prob(occ.l_bar, l)
    n1, n2, l1, l2 = np.ix_(n, n, l, l)
    weights = np.einsum("a,b,c,d->abcd", pn, pn, pl, pl)
    zeta = delta_s(dq, n1, l1, n2, l2) / (4.0 * jxy)
    value = 1.0 - float(np.sum(weights * fd(zeta)))
    return value, 1.0 - float(pn.sum() ** 2 * pl.sum() ** 2)


@pytest.fixture(scope="module")
def occ_a(case_a):
    return ThermalOccupations.from_temperature(case_a, 0.080, l_bar=2.0)


class TestThermalStatistics:
    def test_occupation_reference_values(self, case_a, occ_a):
        assert occ_a.k_bar == pytest.approx(2.926358, rel=1e-6)
        assert occ_a.n_bar == pytest.approx(8.304373e-3, rel=1e-6)
        assert occ_a.l_bar == 2.0

    def test_occupation_zero_temperature(self):
        assert occupation_from_temperature(TWO_PI * 1e9, 0.0) == 0.0

    def test_occupation_classical_limit(self):
        # at k_B T >> hbar omega the occupation approaches k_B T / hbar omega
        omega, temp = TWO_PI * 1e6, 1.0
        classical = CODATA2018.k_B * temp / (CODATA2018.hbar * omega)
        assert occupation_from_temperature(omega, temp) == pytest.approx(
            classical, rel=1e-3
        )

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            ThermalOccupations(k_bar=-0.1, n_bar=0.0, l_bar=0.0)

    @pytest.mark.parametrize("m_bar", [0.0, 0.3, 2.926358, 50.0])
    def test_thermal_weights_normalized(self, m_bar):
        m = np.arange(thermal_cutoff(m_bar) + 1)
        total = thermal_prob(m_bar, m).sum()
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_thermal_weights_ground_state(self):
        assert thermal_prob(0.0, 0) == 1.0
        assert thermal_prob(0.0, 1) == 0.0

    @pytest.mark.parametrize("m_bar", [0.1, 1.819843, 35.0])
    def test_difference_weights_normalized(self, m_bar):
        cut = thermal_cutoff(m_bar)
        delta = np.arange(-cut, cut + 1)
        assert difference_prob(delta, m_bar).sum() == pytest.approx(1.0, abs=1e-9)

    def test_difference_weights_match_convolution(self):
        m_bar = 0.7
        m = np.arange(0, 200)
        p = thermal_prob(m_bar, m)
        for delta in (0, 1, 3, -2):
            direct = float(np.sum(p[: 200 - abs(delta)] * p[abs(delta) :]))
            assert difference_prob(delta, m_bar) == pytest.approx(direct, rel=1e-10)

    def test_cutoff_grows_with_occupation(self):
        assert thermal_cutoff(0.0) >= 1
        assert thermal_cutoff(50.0) > thermal_cutoff(2.0) > thermal_cutoff(0.0)


class TestDephasingFactor:
    def test_unity_at_zero_detuning(self):
        assert fd(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_even_in_detuning(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(0.0, 8.0, size=40)
        assert np.allclose(fd(z), fd(-z), atol=1e-12)

    def test_reference_value_at_unit_detuning(self):
        assert fd(1.0) == pytest.approx(4.388546e-1, rel=1e-6)

    def test_large_detuning_limit(self):
        assert fd(1e6) == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_fd_is_the_overlap_part_of_the_two_site_bloch_average(self, case_a):
        # fd = 1/2 + c/3 + |f|^2/6 - (1 - |f|^2)/6: the Bose average that
        # transfer reports, less the overlap kept when the excitation stays
        # behind.  f is the two-site arrival amplitude at the swap time with
        # the receiver detuned by zeta exchange splittings (4 Jxy), its phase
        # referred to the sender's frame, and c its overlap with the ideal
        # resonant arrival.
        cm = coupling_matrix(case_a, uniform_chain(2, 10e-6))
        jxy = float(cm.jxy[0, 1])
        t = swap_time(jxy)
        _, block = single_excitation_block(cm, case_a.omega_s)

        def arrival(zeta):
            energies, vectors = np.linalg.eigh(block + np.diag([0.0, 4.0 * jxy * zeta]))
            f = vectors[1] @ (np.exp(-1j * energies * t) * vectors[0])
            return f * np.exp(1j * block[0, 0] * t)

        ideal = arrival(0.0)
        assert abs(ideal) == pytest.approx(1.0, abs=1e-14)
        for zeta in np.linspace(-4.0, 4.0, 33):
            f = arrival(zeta)
            c = (f * np.conj(ideal)).real
            abs_f2 = abs(f) ** 2
            bose_less_stay = 0.5 + c / 3.0 + abs_f2 / 6.0 - (1.0 - abs_f2) / 6.0
            assert fd(zeta) == pytest.approx(bose_less_stay, abs=1e-14)

    def test_vectorized_matches_scalar(self):
        z = np.array([0.0, 0.5, 1.0, 2.0])
        vec = fd(z)
        assert vec.shape == z.shape
        for i, zi in enumerate(z):
            assert vec[i] == pytest.approx(fd(float(zi)), rel=1e-14)


class TestSpinShift:
    def test_reference_values(self, case_a):
        assert spin_shift(case_a, 0, 0) == pytest.approx(9.900283e5, rel=1e-6)
        assert spin_shift(case_a, 1, 0) == pytest.approx(7.559391e5, rel=1e-6)

    def test_pair_difference_reference(self, case_a):
        assert delta_s(case_a, 0, 0, 1, 0) == pytest.approx(-2.340892e5, rel=1e-6)

    def test_pair_difference_approx_mode(self, case_a_approx):
        assert delta_s(case_a_approx, 0, 0, 1, 0) == pytest.approx(
            -7.602917e4, rel=1e-6
        )

    def test_difference_is_shift_difference(self, case_a):
        for n1, l1, n2, l2 in ((0, 0, 1, 0), (2, 1, 0, 3), (1, 1, 1, 1)):
            assert delta_s(case_a, n1, l1, n2, l2) == pytest.approx(
                spin_shift(case_a, n2, l2) - spin_shift(case_a, n1, l1), rel=1e-12
            )

    def test_antisymmetric_under_electron_swap(self, case_a):
        assert delta_s(case_a, 2, 1, 0, 3) == pytest.approx(
            -delta_s(case_a, 0, 3, 2, 1), rel=1e-12
        )

    def test_spread_reference(self, case_a, occ_a):
        # rms over both electrons' thermal cyclotron and magnetron states
        assert delta_s_spread(case_a, occ_a) == pytest.approx(30553.18, rel=1e-5)


class TestResidualError:
    def test_zero_occupation_is_exact(self, case_a, occ_a):
        cold = ThermalOccupations(k_bar=0.0, n_bar=0.0, l_bar=0.0)
        res = error_residual(case_a, cold, 2.16e4)
        assert res.value == 0.0

    def test_reference_value(self, case_a, occ_a):
        jxy = 2.1605828877e4
        res = error_residual(case_a, occ_a, jxy)
        assert res.value == pytest.approx(1.134577e-2, rel=1e-6)
        assert res.tail_mass < 1e-8

    def test_difference_and_direct_methods_agree(self, case_a, occ_a):
        jxy = 2.1605828877e4
        diff = error_residual(case_a, occ_a, jxy)
        direct, _ = residual_four_fold(
            case_a, occ_a, jxy, diff.cutoff_cyclotron, diff.cutoff_magnetron
        )
        assert diff.value == pytest.approx(direct, rel=1e-6, abs=1e-9)

    def test_monotone_decreasing_in_coupling(self, case_a, occ_a):
        values = [
            error_residual(case_a, occ_a, j).value
            for j in np.geomspace(2.16e3, 2.16e4, 5)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_tiny_term_budget_warns_and_clamps(self, case_a, occ_a):
        with pytest.warns(TruncationWarning):
            res = error_residual(case_a, occ_a, 2.16e4, max_terms=50)
        assert res.tail_mass > 0.0
        assert 0.0 <= res.value < 1.0


CASE_A = derive_quantities(case_a_params())


@settings(max_examples=25, deadline=None, database=None)
@given(
    n_bar=st.floats(0.0, 0.4),
    l_bar=st.floats(0.0, 0.4),
    jxy=st.floats(2e3, 2e5),
)
def test_residual_collapse_equals_four_fold_sum(n_bar, l_bar, jxy):
    occ = ThermalOccupations(k_bar=0.0, n_bar=n_bar, l_bar=l_bar)
    res = error_residual(CASE_A, occ, jxy)
    ref, ref_tail = residual_four_fold(
        CASE_A, occ, jxy, res.cutoff_cyclotron, res.cutoff_magnetron
    )
    # each truncated sum misses at most its own tail mass (0 <= fd <= 1)
    assert abs(res.value - ref) <= res.tail_mass + ref_tail + 1e-12


class TestCanonicalError:
    def test_two_site_closed_form_matches_general(self, case_a):
        rng = np.random.default_rng(11)
        for _ in range(20):
            occ = ThermalOccupations(*rng.uniform(0.0, 5.0, size=3))
            general = error_canonical(case_a, occ, 2)
            two_site = error_canonical_two_site(case_a, occ)
            assert general == pytest.approx(two_site, rel=1e-12)

    @pytest.mark.parametrize("n_sites", [2, 3, 5])
    def test_numeric_average_matches_closed_form(self, case_a, n_sites):
        occ = ThermalOccupations(k_bar=2.9, n_bar=0.008, l_bar=2.0)
        closed = error_canonical(case_a, occ, n_sites, BlochAveraging.CLOSED_FORM)
        numeric = error_canonical(case_a, occ, n_sites, BlochAveraging.NUMERIC)
        assert numeric == pytest.approx(closed, rel=1e-6)

    def test_unaveraged_vectorizes_over_theta(self, case_a):
        occ = ThermalOccupations(k_bar=1.0, n_bar=0.5, l_bar=2.0)
        thetas = np.array([0.0, 1.0, 2.0])
        vec = error_canonical_unaveraged(case_a, occ, 2, thetas)
        assert vec.shape == thetas.shape
        for i, theta in enumerate(thetas):
            assert vec[i] == pytest.approx(
                error_canonical_unaveraged(case_a, occ, 2, float(theta)), rel=1e-14
            )

    def test_grows_with_chain_length(self, case_a):
        occ = ThermalOccupations(k_bar=2.9, n_bar=0.008, l_bar=2.0)
        values = [error_canonical(case_a, occ, n) for n in (2, 4, 8)]
        assert values[0] < values[1] < values[2]


class TestTransitionEstimates:
    def test_reference_values_and_flags(self, case_a, occ_a):
        xi = coulomb_scale(case_a, 10e-6)
        estimates = transition_probabilities(case_a, occ_a, xi)
        assert len(estimates) == 3
        values = [e.probability for e in estimates]
        assert values[0] == pytest.approx(6.1119e-11, rel=1e-4)
        assert values[1] == pytest.approx(3.5481e-8, rel=1e-4)
        assert values[2] == pytest.approx(6.3450e-5, rel=1e-4)
        assert not any(e.flagged for e in estimates)
        assert len({e.label for e in estimates}) == 3

    def test_flagging_threshold(self, case_a, occ_a):
        # a tenfold Coulomb rate pushes the third estimate past the flag level
        xi = coulomb_scale(case_a, 10e-6)
        estimates = transition_probabilities(case_a, occ_a, 10.0 * xi)
        assert estimates[2].flagged


class TestTotalFidelity:
    def test_reference_budget(self, case_a, occ_a):
        jxy = 2.1605828877e4
        report = total_fidelity(case_a, occ_a, jxy)
        assert report.error_residual_value == pytest.approx(1.134577e-2, rel=1e-6)
        assert report.error_canonical_scaled == pytest.approx(6.350753e-3, rel=1e-6)
        assert 1.0 - report.f_total == pytest.approx(1.769653e-2, rel=1e-6)
        assert report.in_range
        assert report.n_sites == 2

    def test_second_reference_budget(self, case_b):
        occ = ThermalOccupations.from_temperature(case_b, 0.080, l_bar=0.15)
        _, jxy = pair_coupling_strengths(case_b, 10e-6)
        report = total_fidelity(case_b, occ, jxy)
        assert 1.0 - report.f_total == pytest.approx(2.778872e-3, rel=1e-6)

    def test_longer_chain_scales_residual(self, case_a, occ_a):
        jxy = 2.16e4
        pair = total_fidelity(case_a, occ_a, jxy, n_sites=2)
        chain = total_fidelity(case_a, occ_a, jxy, n_sites=4)
        assert chain.error_residual_value == pytest.approx(
            3.0 * pair.error_residual_value, rel=1e-12
        )
        assert any("heuristic" in tag for tag in chain.mode_tags)

    def test_out_of_range_budget_reported_not_clamped(self, case_a):
        hot = ThermalOccupations(k_bar=1e4, n_bar=0.01, l_bar=2.0)
        with pytest.warns(ValidityWarning):
            report = total_fidelity(case_a, hot, 2.16e4)
        assert report.f_total < 0.0
        assert not report.in_range
        assert any("out-of-range" in tag for tag in report.mode_tags)

    def test_report_dict_round_trip(self, case_a, occ_a):
        report = total_fidelity(case_a, occ_a, 2.16e4)
        data = report.as_dict()
        assert data["f_total"] == report.f_total
        assert data["n_sites"] == 2
        assert isinstance(data["mode_tags"], list)
