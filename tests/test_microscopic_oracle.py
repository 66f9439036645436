import math

import numpy as np
import pytest

from penning_chain.couplings import Orientation, isotropy_ratio
from penning_chain import microscopic_oracle
from penning_chain.fidelity_model import fd
from penning_chain.microscopic_oracle import (
    FitFailure,
    FockTruncation,
    StateTrackingFailure,
    build_microscopic,
    detuned_pair_hamiltonian,
    extract_effective_jxy,
    extract_effective_jz,
    hsd_fidelity,
    predicted_couplings,
    run_validation_suite,
    synthetic_quantities,
)
from penning_chain.spin_chain import DimensionOverflow
from penning_chain.trap_model import ComplexFrequency


def swap_amplitude(omega1, omega2, jxy, jz, t):
    """Amplitude on |down, up> after evolving |up, down> for time ``t``."""
    energies, vectors = np.linalg.eigh(detuned_pair_hamiltonian(omega1, omega2, jxy, jz))
    u = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
    return complex(u[1, 2])


class TestFockTruncation:
    def test_dimensions(self):
        trunc = FockTruncation(n_max=3, k_max=3)
        assert trunc.single_dimension == 32
        assert trunc.pair_dimension == 1024

    def test_pair_dimension_cap(self):
        FockTruncation(n_max=3, k_max=7)  # 2*4*8 = 64 -> 4096: at the cap
        with pytest.raises(DimensionOverflow):
            FockTruncation(n_max=5, k_max=5)

    def test_rejects_meaningless_cutoffs(self):
        with pytest.raises(ValueError):
            FockTruncation(n_max=0, k_max=3)


class TestSyntheticQuantities:
    def test_scales(self):
        dq = synthetic_quantities(0.025, 15.0)
        assert dq.omega_z == 1.0
        assert dq.omega_c == 15.0
        assert dq.epsilon == 0.025
        assert dq.omega_c_tilde == pytest.approx(math.sqrt(15.0**2 - 2.0), rel=1e-15)

    def test_unstable_ratio_rejected(self):
        with pytest.raises(ComplexFrequency):
            synthetic_quantities(0.025, 1.2)

    def test_predicted_couplings_consistent_with_pair_formulas(self):
        dq = synthetic_quantities(0.05, 15.0)
        jz, jxy = predicted_couplings(dq, 0.01)
        assert jxy == pytest.approx(9.284189e-5, rel=1e-6)
        assert 2.0 * jz / jxy == pytest.approx(isotropy_ratio(dq), rel=1e-12)

    def test_predicted_couplings_vanish_without_coulomb(self):
        dq = synthetic_quantities(0.05, 15.0)
        assert predicted_couplings(dq, 0.0) == (0.0, 0.0)


class TestBuildMicroscopic:
    @pytest.mark.parametrize(
        "orientation", [Orientation.AXIAL_Z, Orientation.TRANSVERSE_X]
    )
    def test_conserves_total_excitation_number(self, orientation):
        dq = synthetic_quantities(0.04, 12.0)
        sys = build_microscopic(dq, 0.01, orientation, FockTruncation(2, 2))
        h = sys.hamiltonian
        n_op = np.diag(sys.n_exc_diag.astype(float))
        comm = h @ n_op - n_op @ h
        assert np.max(np.abs(comm)) < 1e-8 * np.max(np.abs(h))

    def test_hermitian(self, dispersive_system):
        h = dispersive_system.hamiltonian
        assert np.max(np.abs(h - h.conj().T)) < 1e-9

    def test_excitation_sectors_partition_the_space(self, dispersive_system):
        sizes = 0
        n = 0
        while True:
            sector = dispersive_system.excitation_sector(n)
            if len(sector) == 0:
                break
            sizes += len(sector)
            n += 1
        assert sizes == dispersive_system.trunc.pair_dimension


class TestFlipFlopExtraction:
    def test_dispersive_point_both_methods(self, dispersive_system):
        _, jxy_pred = predicted_couplings(dispersive_system.dq, dispersive_system.xi)
        split = extract_effective_jxy(dispersive_system, method="splitting")
        fit = extract_effective_jxy(dispersive_system, method="fit")
        assert split / jxy_pred == pytest.approx(0.9081, rel=1e-3)
        assert fit / jxy_pred == pytest.approx(0.8979, rel=1e-3)

    def test_strong_point_splitting(self, strong_system):
        _, jxy_pred = predicted_couplings(strong_system.dq, strong_system.xi)
        split = extract_effective_jxy(strong_system, method="splitting")
        assert split == pytest.approx(6.579368e-5, rel=1e-6)
        assert split / jxy_pred == pytest.approx(0.70866, rel=1e-4)

    def test_splitting_convergence_pinned(self):
        # splitting values are pure eigensystem output, so they can be
        # pinned tightly; the increments must shrink monotonically
        dq = synthetic_quantities(0.05, 15.0)
        expected = {
            1: 6.579624480880e-5,
            2: 6.579368042081e-5,
            3: 6.579367720549e-5,
            4: 6.579367720265e-5,
        }
        measured = {}
        for k_max, value in expected.items():
            sys = build_microscopic(
                dq, 0.01, Orientation.AXIAL_Z, FockTruncation(3, k_max)
            )
            measured[k_max] = extract_effective_jxy(sys, method="splitting")
            assert measured[k_max] == pytest.approx(value, rel=1e-9)
        steps = [abs(measured[k + 1] - measured[k]) for k in (1, 2, 3)]
        assert steps[0] > steps[1] > steps[2]

    def test_gradient_off_returns_zero(self):
        dq = synthetic_quantities(0.0, 15.0)
        sys = build_microscopic(dq, 0.01, Orientation.AXIAL_Z, FockTruncation(2, 2))
        assert extract_effective_jxy(sys, method="fit") == 0.0

    def test_coulomb_off_returns_zero(self):
        dq = synthetic_quantities(0.025, 15.0)
        sys = build_microscopic(dq, 0.0, Orientation.AXIAL_Z, FockTruncation(2, 2))
        assert extract_effective_jxy(sys, method="fit") == 0.0

    def test_non_dispersive_point_raises_fit_failure(self):
        dq = synthetic_quantities(0.1, 10.0)
        sys = build_microscopic(dq, 0.01, Orientation.AXIAL_Z, FockTruncation(3, 3))
        with pytest.raises(FitFailure, match="contrast"):
            extract_effective_jxy(sys, method="fit")

    def test_unknown_method_rejected(self, dispersive_system):
        with pytest.raises(ValueError):
            extract_effective_jxy(dispersive_system, method="bogus")

    def test_side_by_side_splitting_is_minus_half_the_stacked_one(self):
        # the side-by-side coupling block is -1/2 times the stacked one, so
        # the raw dressed level splittings must stand in that ratio; the
        # dressing differs slightly between the two orientations
        dq = synthetic_quantities(0.025, 15.0)
        raw = {}
        for orientation in Orientation:
            sys = build_microscopic(dq, 0.01, orientation, FockTruncation(3, 3))
            sector = sys.excitation_sector(1)
            energies, vectors = np.linalg.eigh(sys.hamiltonian[np.ix_(sector, sector)])
            ud = int(np.searchsorted(sector, sys.spin_ground_index(1, 0)))
            du = int(np.searchsorted(sector, sys.spin_ground_index(0, 1)))
            k_sym = np.argmax(np.abs(vectors[ud] + vectors[du]) ** 2)
            k_anti = np.argmax(np.abs(vectors[ud] - vectors[du]) ** 2)
            raw[orientation] = energies[k_sym] - energies[k_anti]
        ratio = raw[Orientation.TRANSVERSE_X] / raw[Orientation.AXIAL_Z]
        assert ratio == pytest.approx(-0.5, abs=1e-3)

    @pytest.mark.parametrize("method", ["fit", "splitting"])
    def test_extraction_is_orientation_free(self, method):
        # both extractors divide the orientation factor out, so the two
        # orientations measure the same pair strength up to the dressing
        dq = synthetic_quantities(0.025, 15.0)
        _, jxy_pred = predicted_couplings(dq, 0.01)
        for orientation in Orientation:
            sys = build_microscopic(dq, 0.01, orientation, FockTruncation(3, 3))
            measured = extract_effective_jxy(sys, method=method)
            assert measured / jxy_pred == pytest.approx(0.905, abs=0.01)


class TestIsingExtraction:
    def test_dispersive_point(self, dispersive_system):
        jz_pred, _ = predicted_couplings(dispersive_system.dq, dispersive_system.xi)
        jz = extract_effective_jz(dispersive_system)
        assert jz / jz_pred == pytest.approx(0.9228, rel=1e-3)

    def test_strong_point_loses_state_tracking(self, strong_system):
        # at eps = 0.05 the dressed up-up state hybridizes too strongly
        # (overlap ~0.81) for the energy assignment to be trusted
        with pytest.raises(StateTrackingFailure):
            extract_effective_jz(strong_system)


class TestDetunedSwap:
    def test_pair_hamiltonian_structure(self):
        h = detuned_pair_hamiltonian(2.0, 3.0, 0.25, 0.1)
        assert h.shape == (4, 4)
        assert np.allclose(h, h.conj().T)
        assert h[1, 2] == pytest.approx(2.0 * 0.25)

    def test_resonant_swap_amplitude_phase(self):
        # on resonance with no Ising term the t_ex amplitude is exactly -i
        amp = swap_amplitude(0.0, 0.0, 1.0, 0.0, math.pi / 4.0)
        assert amp == pytest.approx(-1j, abs=1e-12)

    def test_resonant_full_state_fidelity(self):
        t_ex = math.pi / 4.0
        assert hsd_fidelity(0.0, 0.0, 1.0, 0.37, t_ex) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("zeta", [0.25, 1.0, 3.0])
    def test_detuned_fidelity_matches_closed_form(self, zeta):
        jxy = 1.0
        t_ex = math.pi / (4.0 * jxy)
        value = hsd_fidelity(0.0, 4.0 * jxy * zeta, jxy, 0.2, t_ex)
        assert value == pytest.approx(fd(zeta), abs=1e-10)

    def test_ising_term_drops_out(self):
        t_ex = math.pi / 4.0
        a = hsd_fidelity(0.0, 2.0, 1.0, 0.0, t_ex)
        b = hsd_fidelity(0.0, 2.0, 1.0, 5.0, t_ex)
        assert a == pytest.approx(b, abs=1e-12)

    def test_fixed_bloch_state_overlap(self):
        t_ex = math.pi / 4.0
        # a sender pointing at the pole transfers with the full swap
        # amplitude magnitude regardless of detuning phase conventions
        value = hsd_fidelity(0.0, 4.0, 1.0, 0.1, t_ex, theta=math.pi)
        s_tilde = math.sin(0.5 * math.pi * math.sqrt(2.0)) ** 2 / 2.0
        assert value == pytest.approx(s_tilde, rel=1e-9)


class TestValidationSuite:
    def test_default_point_passes(self):
        report = run_validation_suite()
        assert report.passed
        assert report.convergence_monotone
        assert all(c.passed for c in report.checks)
        text = report.as_text()
        assert "overall: PASS" in text
        assert text.count("pass") >= 5

    def test_default_point_passes_side_by_side(self):
        report = run_validation_suite(orientation=Orientation.TRANSVERSE_X)
        assert report.passed, report.as_text()
        assert all(c.passed for c in report.checks)

    def test_strong_point_fails_honestly(self):
        report = run_validation_suite(epsilon=0.05)
        assert not report.passed
        names = {c.name: c for c in report.checks}
        flip = names["flip-flop coupling (level splitting)"]
        assert not flip.passed
        assert flip.deviation == pytest.approx(0.2913, rel=1e-3)
        ising = names["Ising coupling (dressed energies)"]
        assert not ising.passed
        assert "overlap" in ising.note
        assert "overall: FAIL" in report.as_text()

    def test_each_truncation_is_built_once(self, monkeypatch):
        built = []

        def counting_build(dq, xi, orientation, trunc):
            built.append(trunc.k_max)
            return build_microscopic(dq, xi, orientation, trunc)

        monkeypatch.setattr(microscopic_oracle, "build_microscopic", counting_build)
        trunc = FockTruncation(n_max=2, k_max=2)
        report = run_validation_suite(trunc=trunc)
        # the suite's own system, then the convergence rows it does not already hold
        assert built == [2, 1, 3]
        assert len(built) == trunc.k_max + 1

        dq = synthetic_quantities(0.025, 15.0)
        for k_max, jxy in report.convergence:
            fresh = build_microscopic(
                dq, 0.01 * dq.omega_z, Orientation.AXIAL_Z, FockTruncation(2, k_max)
            )
            assert jxy == extract_effective_jxy(fresh, method="splitting")
