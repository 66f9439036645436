import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import penning_chain.couplings as couplings
from conftest import TWO_PI, case_a_params, field_for_cyclotron
from penning_chain.couplings import (
    ChainGeometry,
    Orientation,
    RegimeError,
    ZeroCoupling,
    coupling_matrix,
    isotropy_ratio,
    pair_coupling_strengths,
    swap_time,
    uniform_chain,
    write_csv,
)
from penning_chain.trap_model import (
    AnomalyMode,
    TrapParams,
    coulomb_scale,
    derive_quantities,
    validate_regime,
)


class TestPairStrengths:
    def test_reference_values_exact_mode(self, case_a):
        jz, jxy = pair_coupling_strengths(case_a, 10e-6)
        assert jz == pytest.approx(8.1957945279e3, rel=1e-9)
        assert jxy == pytest.approx(2.1605828877e4, rel=1e-9)

    def test_reference_value_approx_mode(self, case_a_approx):
        _, jxy = pair_coupling_strengths(case_a_approx, 10e-6)
        assert jxy == pytest.approx(2.9055362271e4, rel=1e-9)

    def test_ising_part_is_mode_independent(self, case_a, case_a_approx):
        jz_exact, _ = pair_coupling_strengths(case_a, 10e-6)
        jz_approx, _ = pair_coupling_strengths(case_a_approx, 10e-6)
        assert jz_exact == pytest.approx(jz_approx, rel=1e-15)

    def test_inverse_cube_distance_law(self, case_a):
        jz1, jxy1 = pair_coupling_strengths(case_a, 10e-6)
        jz2, jxy2 = pair_coupling_strengths(case_a, 20e-6)
        assert jz2 == pytest.approx(jz1 / 8.0, rel=1e-12)
        assert jxy2 == pytest.approx(jxy1 / 8.0, rel=1e-12)

    def test_quadratic_gradient_law(self):
        one = derive_quantities(case_a_params(gradient=450.0))
        two = derive_quantities(case_a_params(gradient=900.0))
        jz1, jxy1 = pair_coupling_strengths(one, 10e-6)
        jz2, jxy2 = pair_coupling_strengths(two, 10e-6)
        assert jz2 == pytest.approx(4.0 * jz1, rel=1e-12)
        assert jxy2 == pytest.approx(4.0 * jxy1, rel=1e-12)

    def test_zero_gradient_kills_both_couplings(self):
        dq = derive_quantities(case_a_params(gradient=0.0))
        jz, jxy = pair_coupling_strengths(dq, 10e-6)
        assert jz == 0.0
        assert jxy == 0.0


class TestSwapTime:
    def test_reference_value(self, case_a):
        _, jxy = pair_coupling_strengths(case_a, 10e-6)
        assert swap_time(jxy) == pytest.approx(3.6351216511e-5, rel=1e-9)

    def test_quarter_period_relation(self):
        assert swap_time(1.0) == pytest.approx(math.pi / 4.0, rel=1e-15)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCoupling):
            swap_time(0.0)


class TestIsotropyRatio:
    def test_matches_pair_strengths(self, case_a):
        jz, jxy = pair_coupling_strengths(case_a, 10e-6)
        assert isotropy_ratio(case_a) == pytest.approx(2.0 * jz / jxy, rel=1e-12)

    def test_magic_frequency_ratio(self):
        # at omega_c / omega_z = 18.8 the approximate-anomaly couplings are
        # nearly isotropic: 2 Jz / Jxy deviates from one by well under 2%
        b0 = field_for_cyclotron(8e9)
        omega_z = TWO_PI * 8e9 / 18.8
        approx = derive_quantities(
            TrapParams(B0=b0, b=1800.0, omega_z_in=omega_z,
                       anomaly_mode=AnomalyMode.APPROX_1E3)
        )
        exact = derive_quantities(
            TrapParams(B0=b0, b=1800.0, omega_z_in=omega_z,
                       anomaly_mode=AnomalyMode.EXACT_G)
        )
        assert isotropy_ratio(approx) == pytest.approx(0.9937036288, rel=1e-9)
        assert isotropy_ratio(exact) == pytest.approx(1.3363254467, rel=1e-9)

    def test_gradient_independent(self):
        weak = derive_quantities(case_a_params(gradient=10.0))
        strong = derive_quantities(case_a_params(gradient=1800.0))
        assert isotropy_ratio(weak) == pytest.approx(
            isotropy_ratio(strong), rel=1e-15
        )


class TestChainGeometry:
    def test_uniform_chain_positions(self):
        geom = uniform_chain(4, 10e-6)
        assert geom.n_sites == 4
        assert geom.positions == pytest.approx((0.0, 10e-6, 20e-6, 30e-6))
        assert geom.distance(0, 3) == pytest.approx(30e-6)
        assert geom.orientation is Orientation.AXIAL_Z

    def test_distance_matrix_symmetry(self):
        geom = ChainGeometry(
            orientation=Orientation.TRANSVERSE_X, positions=(0.0, 1e-5, 2.5e-5)
        )
        d = geom.distances()
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)


class TestCouplingMatrix:
    def test_uniform_chain_structure(self, case_a):
        geom = uniform_chain(3, 10e-6)
        cm = coupling_matrix(case_a, geom, l_bar=2.0)
        assert cm.n_sites == 3
        assert np.allclose(cm.jz, cm.jz.T)
        assert np.allclose(cm.jxy, cm.jxy.T)
        assert np.all(np.diag(cm.jz) == 0.0)
        assert cm.jz[0, 1] == pytest.approx(cm.jz[1, 2], rel=1e-15)
        # next-nearest pair sits at twice the spacing: 1/8 the strength
        assert cm.jz[0, 2] == pytest.approx(cm.jz[0, 1] / 8.0, rel=1e-12)
        assert cm.anomaly_mode is AnomalyMode.EXACT_G

    def test_sequence_of_identical_sites_matches_scalar(self, case_a):
        geom = uniform_chain(3, 10e-6)
        scalar = coupling_matrix(case_a, geom)
        per_site = coupling_matrix([case_a] * 3, geom)
        assert np.allclose(scalar.jz, per_site.jz, rtol=1e-15)
        assert np.allclose(scalar.jxy, per_site.jxy, rtol=1e-15)

    def test_nearest_neighbor_only(self, case_a):
        geom = uniform_chain(4, 10e-6)
        cm = coupling_matrix(case_a, geom, nearest_neighbor_only=True)
        assert cm.jxy[0, 1] > 0.0
        assert cm.jxy[0, 2] == 0.0
        assert cm.jxy[0, 3] == 0.0

    def test_mismatched_site_count_rejected(self, case_a):
        geom = uniform_chain(3, 10e-6)
        with pytest.raises(ValueError):
            coupling_matrix([case_a] * 2, geom)

    def test_mixed_anomaly_modes_rejected(self, case_a, case_a_approx):
        geom = uniform_chain(2, 10e-6)
        with pytest.raises(ValueError):
            coupling_matrix([case_a, case_a_approx], geom)

    def test_regime_failure_raises_unless_forced(self, case_a):
        geom = uniform_chain(2, 10e-6)
        with pytest.raises(RegimeError):
            coupling_matrix(case_a, geom, l_bar=1e4)
        forced = coupling_matrix(case_a, geom, l_bar=1e4, force=True)
        assert forced.jxy[0, 1] > 0.0

    def test_csv_export_round_trip(self, case_a):
        geom = uniform_chain(2, 10e-6)
        cm = coupling_matrix(case_a, geom)
        buf = io.StringIO()
        write_csv(cm, buf)
        text = buf.getvalue()
        assert text.startswith("#")
        body = [line for line in text.splitlines() if not line.startswith("#")]
        assert body[0] == "i,j,d_ij,Jz,Jxy,mode"
        fields = body[1].split(",")
        assert float(fields[3]) == pytest.approx(cm.jz[0, 1], rel=1e-11)
        assert float(fields[4]) == pytest.approx(cm.jxy[0, 1], rel=1e-11)


def pairwise_reference(site_dq, geom, nearest_neighbor_only):
    """(xi, jz, jxy) pair by pair from the scalar formulas, with the
    geometric mean of the two sites' values for unequal traps."""
    n = geom.n_sites
    dist = geom.distances()
    out = np.zeros((3, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if nearest_neighbor_only and j != i + 1:
                continue
            d = dist[i, j]
            values_i = (coulomb_scale(site_dq[i], d), *pair_coupling_strengths(site_dq[i], d))
            values_j = (coulomb_scale(site_dq[j], d), *pair_coupling_strengths(site_dq[j], d))
            for k, (a, b) in enumerate(zip(values_i, values_j)):
                out[k, i, j] = out[k, j, i] = math.sqrt(a * b)
    return out


traps = st.builds(
    lambda f_c, f_z, gradient: derive_quantities(
        TrapParams(B0=field_for_cyclotron(f_c), b=gradient, omega_z_in=TWO_PI * f_z)
    ),
    st.floats(7e9, 12e9),
    st.floats(300e6, 650e6),
    st.floats(0.0, 2000.0),
)


@settings(max_examples=60, deadline=None, database=None)
@given(
    gaps=st.lists(st.floats(1e-6, 5e-5), min_size=1, max_size=24),
    start=st.floats(-1e-4, 1e-4),
    pool=st.lists(traps, min_size=1, max_size=3),
    per_site=st.booleans(),
    nearest=st.booleans(),
    data=st.data(),
)
def test_array_couplings_equal_pairwise_formulas_bitwise(gaps, start, pool, per_site, nearest, data):
    geom = ChainGeometry(Orientation.AXIAL_Z, tuple(np.cumsum([start, *gaps]).tolist()))
    n = geom.n_sites
    if per_site:
        site_dq = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        arg = site_dq
    else:
        site_dq, arg = [pool[0]] * n, pool[0]
    cm = coupling_matrix(arg, geom, nearest_neighbor_only=nearest, force=True)
    ref = pairwise_reference(site_dq, geom, nearest)
    for got, want in zip((cm.xi, cm.jz, cm.jxy), ref):
        assert got.tobytes() == want.tobytes()


def test_each_distinct_trap_validated_once(case_a, case_b, monkeypatch):
    calls = []

    def counting(dq, **kwargs):
        calls.append(dq)
        return validate_regime(dq, **kwargs)

    monkeypatch.setattr(couplings, "validate_regime", counting)
    coupling_matrix([case_a, case_b] * 3, uniform_chain(6, 10e-6), force=True)
    assert calls == [case_a, case_b]
    calls.clear()
    with pytest.raises(RegimeError, match="^validity conditions failed: magnetron_occupation$"):
        coupling_matrix(case_a, uniform_chain(40, 10e-6), l_bar=1e4)
    assert calls == [case_a]
