import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from penning_chain.couplings import (
    CouplingMatrix,
    Orientation,
    coupling_matrix,
    uniform_chain,
)
from penning_chain.spin_chain import (
    DimensionOverflow,
    MAX_SITES,
    SpinState,
    basis_index,
    build_effective_hamiltonian,
    evolve,
    sender_state,
    single_excitation_block,
    transfer_fidelity_curve,
    transfer_fidelity_curve_subspace,
)
from penning_chain.trap_model import AnomalyMode


# Kronecker-product reference for the chain Hamiltonian, independent of the
# bit arithmetic in ``build_effective_hamiltonian``.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)
_SZ = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)


def _embed(ops: dict, n_sites: int) -> np.ndarray:
    """Tensor product with ``ops[k]`` on site k and the identity elsewhere."""
    out = np.array([[1.0 + 0.0j]])
    for k in range(n_sites):
        out = np.kron(out, ops.get(k, np.eye(2)))
    return out


def kron_hamiltonian(cm, omega_s, orientation):
    n = cm.n_sites
    prefactor = -1.0 if orientation is Orientation.AXIAL_Z else 0.5
    h = sum(0.5 * omega_s * _embed({i: _SZ}, n) for i in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            block = 2.0 * cm.jz[i, j] * _embed({i: _SZ, j: _SZ}, n)
            block -= cm.jxy[i, j] * _embed({i: _SX, j: _SX}, n)
            block -= cm.jxy[i, j] * _embed({i: _SY, j: _SY}, n)
            h = h + prefactor * block
    return h


@st.composite
def random_couplings(draw):
    """Symmetric random Jz/Jxy on 2..7 sites, some pairs exactly zero."""
    n = draw(st.integers(2, 7))
    n_pairs = n * (n - 1) // 2
    value = st.one_of(st.just(0.0), st.floats(-1e5, 1e5, allow_nan=False))
    mats = []
    for _ in range(2):
        m = np.zeros((n, n))
        m[np.triu_indices(n, 1)] = draw(st.lists(value, min_size=n_pairs, max_size=n_pairs))
        mats.append(m + m.T)
    orientation = draw(st.sampled_from(list(Orientation)))
    cm = CouplingMatrix(
        jz=mats[0], jxy=mats[1], xi=np.zeros((n, n)), distances=np.zeros((n, n)),
        orientation=orientation, anomaly_mode=AnomalyMode.EXACT_G,
    )
    return cm, draw(st.floats(1e9, 1e12))


@settings(max_examples=40, deadline=None, database=None)
@given(random_couplings())
def test_bit_built_hamiltonian_matches_kronecker_reference(case):
    cm, omega_s = case
    h = build_effective_hamiltonian(cm, omega_s)
    ref = kron_hamiltonian(cm, omega_s, cm.orientation)
    assert h.matrix.dtype == np.float64
    assert np.max(np.abs(h.matrix - ref)) <= 1e-14 * np.max(np.abs(ref))


def basis_state(n_sites, up_sites=()):
    """Product state with the given sites spin-up and the rest spin-down."""
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[basis_index(n_sites, tuple(up_sites))] = 1.0
    return SpinState(amplitudes=amps, n_sites=n_sites)


def _bloch_quadrature(abs_f2, cross, n_theta=16, n_phi=32):
    """Sphere average of the fixed-orientation transfer fidelity.

    Gauss-Legendre nodes in cos(theta) times a uniform azimuth grid; the
    overlap does not depend on the azimuth, and the rule is exact for the
    degree-2 polynomial in cos(theta) that the fidelity is.
    """
    u, w = np.polynomial.legendre.leggauss(n_theta)
    c2 = (1.0 + u)[:, None] / 2.0
    s2 = (1.0 - u)[:, None] / 2.0
    nodes = c2 * (1.0 - s2 * abs_f2) + s2**2 * abs_f2 + 2.0 * c2 * s2 * cross
    per_theta = np.repeat(nodes[:, None, :], n_phi, axis=1).mean(axis=1)
    return w @ per_theta / 2.0


@pytest.fixture(scope="module")
def pair(case_a):
    cm = coupling_matrix(case_a, uniform_chain(2, 10e-6))
    return case_a, cm


@pytest.fixture(scope="module")
def chain3(case_a):
    cm = coupling_matrix(case_a, uniform_chain(3, 10e-6))
    return case_a, cm


class TestBasisConventions:
    def test_all_down_is_index_zero(self):
        assert basis_index(3, ()) == 0

    def test_first_site_is_most_significant(self):
        assert basis_index(3, (0,)) == 4
        assert basis_index(3, (2,)) == 1
        assert basis_index(3, (0, 2)) == 5

    def test_basis_state_population(self):
        state = basis_state(2, (0,))
        assert state.n_sites == 2
        assert state.population(2) == pytest.approx(1.0)
        assert state.population(0) == 0.0

    def test_sender_state_superposition(self):
        theta, phi = 1.1, 0.7
        state = sender_state(3, theta, phi)
        amp = state.amplitudes
        assert amp[0] == pytest.approx(math.cos(theta / 2.0))
        assert amp[basis_index(3, (0,))] == pytest.approx(
            math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
        )
        assert np.count_nonzero(amp) == 2

    def test_sender_state_poles(self):
        down = sender_state(2, 0.0, 0.0)
        assert down.amplitudes[0] == pytest.approx(1.0)
        up = sender_state(2, math.pi, 0.0)
        assert abs(up.amplitudes[basis_index(2, (0,))]) == pytest.approx(1.0)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            SpinState(amplitudes=np.array([1.0, 1.0, 0.0, 0.0]), n_sites=2)


class TestEffectiveHamiltonian:
    def test_two_site_elements_stacked_orientation(self, pair):
        dq, cm = pair
        h = build_effective_hamiltonian(cm, dq.omega_s)
        jz, jxy = cm.jz[0, 1], cm.jxy[0, 1]
        ws = dq.omega_s
        m = h.matrix
        assert np.allclose(m, m.conj().T)
        assert m[0, 0] == pytest.approx(-ws - 2.0 * jz, rel=1e-12)
        assert m[3, 3] == pytest.approx(ws - 2.0 * jz, rel=1e-12)
        assert m[1, 1] == pytest.approx(2.0 * jz, abs=1e-6)
        assert m[1, 2] == pytest.approx(2.0 * jxy, rel=1e-12)
        assert m[0, 3] == 0.0

    def test_two_site_elements_side_by_side_orientation(self, pair):
        dq, cm = pair
        cm_x = dataclasses.replace(cm, orientation=Orientation.TRANSVERSE_X)
        h = build_effective_hamiltonian(cm_x, dq.omega_s)
        jz, jxy = cm.jz[0, 1], cm.jxy[0, 1]
        m = h.matrix
        assert m[0, 0] == pytest.approx(-dq.omega_s + jz, rel=1e-12)
        assert m[1, 2] == pytest.approx(-jxy, rel=1e-12)

    def test_orientation_override(self, pair):
        dq, cm = pair
        default = build_effective_hamiltonian(cm, dq.omega_s)
        forced = build_effective_hamiltonian(
            cm, dq.omega_s, orientation=Orientation.TRANSVERSE_X
        )
        assert default.orientation is Orientation.AXIAL_Z
        assert forced.orientation is Orientation.TRANSVERSE_X
        assert not np.allclose(default.matrix, forced.matrix)

    def test_dimension_cap(self, case_a):
        cm = coupling_matrix(case_a, uniform_chain(MAX_SITES + 1, 10e-6))
        with pytest.raises(DimensionOverflow):
            build_effective_hamiltonian(cm, case_a.omega_s)

    def test_single_excitation_block_matches_dense(self, chain3):
        dq, cm = chain3
        h = build_effective_hamiltonian(cm, dq.omega_s)
        e_vac, block = single_excitation_block(cm, dq.omega_s)
        assert e_vac == pytest.approx(h.matrix[0, 0].real, rel=1e-12)
        # dense one-excitation sector: site k up <-> index 1 << (n-1-k)
        idx = [basis_index(3, (k,)) for k in range(3)]
        dense_block = h.matrix[np.ix_(idx, idx)]
        assert np.allclose(block, dense_block, rtol=1e-12, atol=1e-3)


class TestEvolution:
    def test_unitarity(self, pair):
        dq, cm = pair
        h = build_effective_hamiltonian(cm, dq.omega_s)
        state = sender_state(2, 1.2, 0.3)
        out = evolve(h, state, 7.7e-6)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_exponential(self, pair):
        dq, cm = pair
        h = build_effective_hamiltonian(cm, dq.omega_s)
        state = sender_state(2, 2.0, 1.0)
        t = 5e-6
        out = evolve(h, state, t)
        expected = expm(-1j * h.matrix * t) @ state.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-8)


class TestTransferCurve:
    def test_two_site_full_swap(self, pair):
        dq, cm = pair
        jxy = cm.jxy[0, 1]
        t_ex = math.pi / (4.0 * jxy)
        h = build_effective_hamiltonian(cm, dq.omega_s)
        t = np.array([0.0, 0.5 * t_ex, t_ex])
        curve = transfer_fidelity_curve(h, math.pi, 0.0, t)
        # population transfer sin^2(2 J t): 0, 1/2, 1
        assert curve.fidelity_raw[0] == pytest.approx(0.0, abs=1e-12)
        assert curve.fidelity_raw[1] == pytest.approx(0.5, rel=1e-9)
        assert curve.fidelity_raw[2] == pytest.approx(1.0, rel=1e-12)

    def test_three_site_flip_flop_only_analytic(self, chain3):
        dq, cm = chain3
        cm0 = dataclasses.replace(cm, jz=np.zeros_like(cm.jz))
        cm0 = dataclasses.replace(
            cm0, jxy=np.where(cm.distances > 1.5e-5, 0.0, cm.jxy)
        )
        j = cm0.jxy[0, 1]
        t = np.linspace(0.0, math.pi / (math.sqrt(2.0) * j), 9)
        h = build_effective_hamiltonian(cm0, dq.omega_s)
        curve = transfer_fidelity_curve(h, math.pi, 0.0, t)
        analytic = np.abs(0.5 * np.cos(2.0 * math.sqrt(2.0) * j * t) - 0.5) ** 2
        assert np.allclose(curve.fidelity_raw, analytic, atol=1e-8)

    def test_subspace_path_matches_dense(self, chain3):
        dq, cm = chain3
        t = np.linspace(0.0, 2e-4, 33)
        theta, phi = 1.3, 0.4
        dense = transfer_fidelity_curve(
            build_effective_hamiltonian(cm, dq.omega_s), theta, phi, t
        )
        reduced = transfer_fidelity_curve_subspace(cm, dq.omega_s, theta, phi, t)
        assert np.allclose(dense.fidelity, reduced.fidelity, atol=1e-8)
        assert np.allclose(dense.fidelity_raw, reduced.fidelity_raw, atol=1e-8)

    def test_bloch_average_paths_agree(self, chain3):
        dq, cm = chain3
        t = np.linspace(0.0, 2e-4, 17)
        dense = transfer_fidelity_curve(
            build_effective_hamiltonian(cm, dq.omega_s), None, None, t,
            bloch_average=True,
        )
        reduced = transfer_fidelity_curve_subspace(
            cm, dq.omega_s, None, None, t, bloch_average=True
        )
        assert dense.bloch_averaged and reduced.bloch_averaged
        assert np.allclose(dense.fidelity, reduced.fidelity, atol=1e-8)

    def test_bloch_average_matches_dense_quadrature(self, pair):
        # the averaged headline fidelity is a degree-2 polynomial in
        # cos(theta) built from |f|, so a fine trapezoid over theta must
        # reproduce the quadrature result
        dq, cm = pair
        t = np.array([1e-5, 2.3e-5])
        h = build_effective_hamiltonian(cm, dq.omega_s)
        averaged = transfer_fidelity_curve(h, None, None, t, bloch_average=True)
        thetas = np.linspace(0.0, math.pi, 20001)
        acc = np.zeros_like(t)
        for theta in thetas:
            acc += transfer_fidelity_curve(h, theta, 0.0, t).fidelity * math.sin(theta)
        manual = acc * (thetas[1] - thetas[0]) / 2.0
        assert np.allclose(averaged.fidelity, manual, atol=1e-6)

    @pytest.mark.parametrize("n_sites", range(2, 9))
    @pytest.mark.parametrize("orientation", list(Orientation))
    def test_closed_form_bloch_average_matches_quadrature(
        self, case_a, n_sites, orientation
    ):
        cm = coupling_matrix(case_a, uniform_chain(n_sites, 10e-6, orientation))
        t = np.linspace(0.0, (n_sites - 1) * math.pi / cm.jxy[0, 1], 257)
        curve = transfer_fidelity_curve_subspace(
            cm, case_a.omega_s, None, None, t, bloch_average=True
        )
        e_vac, _ = single_excitation_block(cm, case_a.omega_s)
        for got, cross in (
            (curve.fidelity, np.abs(curve.amplitude)),
            (curve.fidelity_raw, np.real(curve.amplitude * np.exp(1j * e_vac * t))),
        ):
            ref = _bloch_quadrature(np.abs(curve.amplitude) ** 2, cross)
            assert np.max(np.abs(got - ref)) <= 1e-14

    def test_full_swap_is_perfect_for_any_bloch_state(self, pair):
        dq, cm = pair
        t_ex = math.pi / (4.0 * cm.jxy[0, 1])
        h = build_effective_hamiltonian(cm, dq.omega_s)
        t = np.array([t_ex])
        for theta, phi in ((0.3, 0.0), (1.5, 2.0), (2.8, 4.4)):
            curve = transfer_fidelity_curve(h, theta, phi, t)
            assert curve.fidelity[0] == pytest.approx(1.0, rel=1e-9)
