"""Effective N-spin chain Hamiltonians, exact evolution, and transfer metrics.

Basis conventions: per-site basis order (down, up) with sigma_z = diag(-1, +1),
site 0 most significant in the tensor order, so the all-down configuration is
basis index 0 and flipping site k up adds 2**(N-1-k).

Both array orientations give an XXZ-type chain; the side-by-side orientation
carries exactly -1/2 times the coupling block of the stacked one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingMatrix, Orientation

# Per-site operators in the (down, up) basis.
SIGMA_Z = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Dense-representation cap: the largest chain whose build plus ``eigh`` fits
# in 2 s and 256 MB peak memory on one BLAS thread.  Measured on a 2-core
# Xeon with OpenBLAS: N = 11 (2048 x 2048, real) takes 0.01 s + 1.5 s and
# 197 MB; N = 12 takes 0.03 s + 12 s and 680 MB.  Transfer curves need no
# dense matrix: ``transfer_fidelity_curve_subspace`` is exact for any N.
MAX_SITES = 11

_NORM_TOL = 1e-8


class DimensionOverflow(ValueError):
    """Requested chain size exceeds the configured dense-representation cap."""


@dataclass(frozen=True)
class SpinState:
    """Pure state of the chain as a complex amplitude vector of length 2**N."""

    amplitudes: np.ndarray
    n_sites: int

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (2**self.n_sites,):
            raise ValueError("amplitude vector length must be 2**n_sites")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {_NORM_TOL}")

    def population(self, basis_index: int) -> float:
        return float(np.abs(self.amplitudes[basis_index]) ** 2)


def basis_index(n_sites: int, up_sites: tuple[int, ...] | list[int]) -> int:
    """Basis index of the configuration with the given sites spin-up."""
    idx = 0
    for site in up_sites:
        idx += 1 << (n_sites - 1 - site)
    return idx


def basis_state(n_sites: int, up_sites: tuple[int, ...] | list[int] = ()) -> SpinState:
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[basis_index(n_sites, tuple(up_sites))] = 1.0
    return SpinState(amplitudes=amps, n_sites=n_sites)


def sender_state(n_sites: int, theta: float, phi: float) -> SpinState:
    """Site 0 prepared at Bloch angles (theta, phi), the rest spin-down.

    theta = 0 is spin-down (the frozen sector), theta = pi is spin-up.
    """
    amps = np.zeros(2**n_sites, dtype=complex)
    amps[0] = np.cos(theta / 2.0)
    amps[basis_index(n_sites, (0,))] = np.exp(1j * phi) * np.sin(theta / 2.0)
    return SpinState(amplitudes=amps, n_sites=n_sites)


@dataclass(frozen=True)
class SpinHamiltonian:
    """Dense real chain Hamiltonian divided by hbar (entries in rad/s)."""

    matrix: np.ndarray
    orientation: Orientation
    omega_s: float
    n_sites: int
    couplings: CouplingMatrix | None = None


def build_effective_hamiltonian(
    cm: CouplingMatrix,
    omega_s: float,
    orientation: Orientation | None = None,
) -> SpinHamiltonian:
    """Assemble the chain Hamiltonian for the given array orientation.

    Stacked along the field the pair block enters with a minus sign and full
    weight; side by side it enters with +1/2, i.e. exactly -1/2 times the
    stacked block.
    """
    n = cm.n_sites
    if n > MAX_SITES:
        raise DimensionOverflow(f"n_sites = {n} exceeds the dense cap {MAX_SITES}")
    if not np.allclose(cm.jz, cm.jz.T) or not np.allclose(cm.jxy, cm.jxy.T):
        raise ValueError("coupling matrices must be symmetric")
    if orientation is None:
        orientation = cm.orientation
    prefactor = orientation.block_sign

    # Spin of every site in every basis state: +1 up, -1 down.
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    spins = 2.0 * bits - 1.0
    jz = np.triu(cm.jz, 1)
    diag = 0.5 * omega_s * spins.sum(axis=1)
    diag += prefactor * 2.0 * ((spins @ jz) * spins).sum(axis=1)
    h = np.diag(diag)
    # sigma_x sigma_x + sigma_y sigma_y swaps unequal spins i and j with
    # amplitude 2 and annihilates equal ones.
    for i, j in zip(*np.nonzero(np.triu(cm.jxy, 1))):
        states = np.flatnonzero(bits[:, i] != bits[:, j])
        flip = (1 << (n - 1 - i)) | (1 << (n - 1 - j))
        h[states, states ^ flip] = -2.0 * prefactor * cm.jxy[i, j]
    return SpinHamiltonian(
        matrix=h,
        orientation=orientation,
        omega_s=omega_s,
        n_sites=n,
        couplings=cm,
    )


def evolve(hamiltonian: SpinHamiltonian, state: SpinState, t: float) -> SpinState:
    """Unitary evolution by time ``t`` via exact eigendecomposition."""
    if state.n_sites != hamiltonian.n_sites:
        raise ValueError("state and Hamiltonian dimensions differ")
    energies, vectors = np.linalg.eigh(hamiltonian.matrix)
    coeffs = vectors.conj().T @ state.amplitudes
    evolved = vectors @ (np.exp(-1j * energies * t) * coeffs)
    return SpinState(amplitudes=evolved, n_sites=state.n_sites)


def single_excitation_block(cm: CouplingMatrix, omega_s: float) -> tuple[float, np.ndarray]:
    """Vacuum energy and the N x N one-excitation block of the chain.

    The all-down state is an eigenstate; the states with exactly one site up
    close under the dynamics.  A qubit sent from site 0 never leaves these
    sectors, so transfer curves computed from this block are exact for any N.
    """
    n = cm.n_sites
    sign = cm.orientation.block_sign
    jz = np.asarray(cm.jz, dtype=float)
    jxy = np.asarray(cm.jxy, dtype=float)
    s_site = jz.sum(axis=1)          # total Ising weight touching each site
    s_all = 0.5 * float(jz.sum())    # sum over unordered pairs

    e_vac = -0.5 * n * omega_s + sign * 2.0 * s_all
    diag = 0.5 * (2.0 - n) * omega_s + sign * 2.0 * (s_all - 2.0 * s_site)
    block = sign * (-2.0) * jxy + np.diag(diag)
    return e_vac, block


@dataclass(frozen=True)
class TransferCurve:
    """End-to-end transfer figures of merit on a time grid.

    ``fidelity`` compensates the known excitation-sector phase (equivalent to
    an optimal z-rotation on the receiving site); ``fidelity_raw`` does not.
    ``amplitude`` is the one-excitation amplitude arriving at the last site.
    """

    t: np.ndarray
    fidelity: np.ndarray
    fidelity_raw: np.ndarray
    amplitude: np.ndarray
    theta: float | None
    phi: float | None
    bloch_averaged: bool


def _curve_from_amplitude(
    t_grid: np.ndarray,
    f_end: np.ndarray,
    e_vac: float,
    theta: float | None,
    phi: float | None,
    bloch_average: bool,
) -> TransferCurve:
    """Assemble transfer fidelities from the arrival amplitude.

    The sender occupies only the zero- and one-excitation sectors, so the last
    site's reduced state is determined by the arrival amplitude f and the
    vacuum phase; the overlap with the sent qubit follows in closed form.  Its
    Bloch average is 1/2 + c/3 + |f|**2/6 (Bose, PRL 91, 207901 (2003)), with
    c = |f| when the phase is compensated and Re(f exp(i E_vac t)) when not.
    """
    abs_f2 = np.abs(f_end) ** 2
    cross_raw = np.real(f_end * np.exp(1j * e_vac * t_grid))
    cross_comp = np.abs(f_end)

    if bloch_average:
        fid = 0.5 + cross_comp / 3.0 + abs_f2 / 6.0
        raw = 0.5 + cross_raw / 3.0 + abs_f2 / 6.0
    else:
        if theta is None:
            raise ValueError("theta is required unless bloch_average is set")
        c2 = np.cos(theta / 2.0) ** 2
        s2 = np.sin(theta / 2.0) ** 2
        # s2 * s2 rounds as the array square the curve has always used
        fid = c2 * (1.0 - s2 * abs_f2) + s2 * s2 * abs_f2 + 2.0 * c2 * s2 * cross_comp
        raw = c2 * (1.0 - s2 * abs_f2) + s2 * s2 * abs_f2 + 2.0 * c2 * s2 * cross_raw

    return TransferCurve(
        t=t_grid,
        fidelity=fid,
        fidelity_raw=raw,
        amplitude=f_end,
        theta=None if bloch_average else theta,
        phi=None if bloch_average else phi,
        bloch_averaged=bloch_average,
    )


def _arrival_amplitude(
    t_grid: np.ndarray, energies: np.ndarray, start: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Amplitude <end| exp(-iHt) |start> on the time grid, from the rows of
    the eigenvector matrix at the two basis states."""
    # one (times x energies) complex array, exponentiated in place
    phases = np.multiply.outer(t_grid, -1j * energies)
    np.exp(phases, out=phases)
    return phases @ (end * start.conj())


def transfer_fidelity_curve(
    hamiltonian: SpinHamiltonian,
    theta: float | None,
    phi: float | None,
    t_grid: np.ndarray,
    *,
    bloch_average: bool = False,
) -> TransferCurve:
    """Transfer fidelity of the last site against the sent qubit (dense path)."""
    n = hamiltonian.n_sites
    t_grid = np.asarray(t_grid, dtype=float)
    energies, vectors = np.linalg.eigh(hamiltonian.matrix)
    start = basis_index(n, (0,))
    end = basis_index(n, (n - 1,))
    f_end = _arrival_amplitude(t_grid, energies, vectors[start, :], vectors[end, :])
    e_vac = float(np.real(hamiltonian.matrix[0, 0]))
    return _curve_from_amplitude(t_grid, f_end, e_vac, theta, phi, bloch_average)


def transfer_fidelity_curve_subspace(
    cm: CouplingMatrix,
    omega_s: float,
    theta: float | None,
    phi: float | None,
    t_grid: np.ndarray,
    *,
    bloch_average: bool = False,
) -> TransferCurve:
    """Transfer fidelity via the (N+1)-dimensional excitation subspace."""
    t_grid = np.asarray(t_grid, dtype=float)
    e_vac, block = single_excitation_block(cm, omega_s)
    energies, vectors = np.linalg.eigh(block)
    f_end = _arrival_amplitude(t_grid, energies, vectors[0, :], vectors[-1, :])
    return _curve_from_amplitude(t_grid, f_end, e_vac, theta, phi, bloch_average)
