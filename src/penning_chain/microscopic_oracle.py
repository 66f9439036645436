"""Brute-force validators for the effective spin-spin couplings.

Two independent cross-checks of the chain model:

(a) exact evolution of the 4x4 two-spin Hamiltonian with detuned spin
    frequencies, certifying the detuned-swap fidelity formula and the
    swap-amplitude relations;

(b) a truncated-Fock-space simulation of two electrons with their axial and
    cyclotron modes, the gradient-induced spin-motion couplings, and the
    inter-trap Coulomb terms, certifying that the effective flip-flop and
    Ising couplings emerge with the predicted magnitude.

The Fock oracle runs in scaled units (axial frequency = 1) with deliberately
exaggerated coupling so the effect is resolvable at small cutoffs; the
physical regime is validated through scaling laws, not long-time evolution.
The magnetron mode is excluded throughout: its occupation affects only the
error budget, and dropping it keeps the dimension tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA2018
from .couplings import Orientation, pair_coupling_strengths
from .spin_chain import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    DimensionOverflow,
)
from .trap_model import AnomalyMode, ComplexFrequency, DerivedQuantities

MAX_PAIR_DIMENSION = 4096
HERMITICITY_TOL = 1e-10
CONTRAST_THRESHOLD = 0.9
OVERLAP_THRESHOLD = 0.9
FIT_POINTS = 4096


class FitFailure(RuntimeError):
    """Population oscillation too weak to fit — outside the dispersive regime."""


class StateTrackingFailure(RuntimeError):
    """A dressed eigenstate lost its identification with a spin basis state."""


@dataclass(frozen=True)
class FockTruncation:
    """Retained Fock levels per mode: indices 0..n_max (cyclotron), 0..k_max (axial)."""

    n_max: int
    k_max: int

    def __post_init__(self) -> None:
        if self.n_max < 1 or self.k_max < 1:
            raise ValueError("cutoffs must be >= 1")
        if self.pair_dimension > MAX_PAIR_DIMENSION:
            raise DimensionOverflow(
                f"two-electron dimension {self.pair_dimension} exceeds {MAX_PAIR_DIMENSION}"
            )

    @property
    def single_dimension(self) -> int:
        return 2 * (self.n_max + 1) * (self.k_max + 1)

    @property
    def pair_dimension(self) -> int:
        return self.single_dimension**2


def _annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


@dataclass(frozen=True)
class MicroscopicSystem:
    """Assembled two-electron Hamiltonian with its excitation bookkeeping.

    Each electron's space is the spin (x) cyclotron (x) axial product, in
    that tensor order with the (down, up) spin basis, and electron 0 is the
    more significant factor of the pair space.  The Hamiltonian is in rad/s.
    ``n_exc_diag`` is the diagonal of the conserved excitation counter
    (cyclotron quanta plus up spins).
    """

    hamiltonian: np.ndarray
    n_exc_diag: np.ndarray
    trunc: FockTruncation
    orientation: Orientation
    quantities: tuple[DerivedQuantities, DerivedQuantities]
    xi: float

    def spin_ground_index(self, spin1: int, spin2: int) -> int:
        """Pair-space index of |spin1, spin2> with all motion in the ground state."""
        stride = self.trunc.single_dimension // 2
        return (spin1 * stride) * self.trunc.single_dimension + spin2 * stride

    def excitation_sector(self, n_exc: int) -> np.ndarray:
        """Indices of the basis states with the given total excitation number."""
        return np.flatnonzero(self.n_exc_diag == n_exc)


def build_microscopic(
    dq: DerivedQuantities | tuple[DerivedQuantities, DerivedQuantities],
    xi: float,
    orientation: Orientation,
    trunc: FockTruncation,
) -> MicroscopicSystem:
    """Assemble the untransformed two-electron Hamiltonian in truncated Fock space.

    Per electron: cyclotron and axial oscillators, the spin splitting, the
    gradient coupling of the axial position to the spin, and the
    co-rotating spin-cyclotron exchange.  Across the pair: the dipolar
    axial position-position term and the co-rotating cyclotron exchange,
    with relative weights set by the array orientation.
    """
    dqs = (dq, dq) if isinstance(dq, DerivedQuantities) else tuple(dq)
    if len(dqs) != 2:
        raise ValueError("dq must be one DerivedQuantities or a pair")
    if xi < 0.0:
        raise ValueError("xi must be >= 0")

    nc, nk = trunc.n_max + 1, trunc.k_max + 1
    eye_c, eye_k = np.eye(nc, dtype=complex), np.eye(nk, dtype=complex)
    a_c, a_k = _annihilation(nc), _annihilation(nk)

    sz = _kron3(SIGMA_Z, eye_c, eye_k)
    sp = _kron3(SIGMA_PLUS, eye_c, eye_k)
    sm = _kron3(SIGMA_MINUS, eye_c, eye_k)
    ac = _kron3(IDENTITY_2, a_c, eye_k)
    az = _kron3(IDENTITY_2, eye_c, a_k)
    num_c = ac.conj().T @ ac
    num_k = az.conj().T @ az
    xz = az + az.conj().T

    def single_particle(q: DerivedQuantities) -> np.ndarray:
        drive = 0.25 * CODATA2018.g * q.epsilon * q.omega_z
        h = q.omega_c * num_c + q.omega_z * num_k + 0.5 * q.omega_s * sz
        h = h + drive * (xz @ sz)
        h = h - drive * math.sqrt(q.omega_z / q.omega_c_tilde) * (sp @ ac + sm @ ac.conj().T)
        return h

    dim_single = trunc.single_dimension
    eye_single = np.eye(dim_single, dtype=complex)
    h = np.kron(single_particle(dqs[0]), eye_single)
    h += np.kron(eye_single, single_particle(dqs[1]))

    cyc_weight = math.sqrt(
        (dqs[0].omega_z / dqs[0].omega_c_tilde) * (dqs[1].omega_z / dqs[1].omega_c_tilde)
    )
    cyc_exchange = np.kron(ac, ac.conj().T) + np.kron(ac.conj().T, ac)
    sign = orientation.block_sign
    h += 2.0 * sign * xi * np.kron(xz, xz) - 2.0 * sign * xi * cyc_weight * cyc_exchange

    scale = np.abs(h).max()
    if scale > 0 and np.abs(h - h.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("assembled Hamiltonian failed the Hermiticity check")

    up_count = np.kron([0.0, 1.0], np.ones(nc * nk))
    n_single = up_count + np.kron(np.ones(2), np.kron(np.arange(nc), np.ones(nk)))
    n_exc = np.rint(np.add.outer(n_single, n_single).ravel()).astype(int)

    return MicroscopicSystem(
        hamiltonian=h,
        n_exc_diag=n_exc,
        trunc=trunc,
        orientation=orientation,
        quantities=dqs,
        xi=xi,
    )


def synthetic_quantities(
    epsilon: float,
    freq_ratio: float,
    anomaly_mode: AnomalyMode = AnomalyMode.EXACT_G,
) -> DerivedQuantities:
    """Derived quantities in scaled units (axial frequency = 1 rad/s).

    The gradient coupling is set directly rather than from a field
    gradient; the zero-point spread has no meaning in these units and is
    reported as zero.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be >= 0")
    omega_z = 1.0
    omega_c = freq_ratio * omega_z
    if omega_c**2 <= 2.0 * omega_z**2:
        raise ComplexFrequency("freq_ratio must exceed sqrt(2)")
    omega_s = 0.5 * CODATA2018.g * omega_c
    if anomaly_mode is AnomalyMode.EXACT_G:
        omega_a = omega_s - omega_c
    else:
        omega_a = 1.0e-3 * omega_c
    return DerivedQuantities(
        omega_m=omega_z**2 / (2.0 * omega_c),
        omega_c=omega_c,
        omega_z=omega_z,
        omega_s=omega_s,
        omega_a=omega_a,
        omega_c_tilde=math.sqrt(omega_c**2 - 2.0 * omega_z**2),
        delta_z=0.0,
        epsilon=epsilon,
        anomaly_mode=anomaly_mode,
    )


def predicted_couplings(dq: DerivedQuantities, xi: float) -> tuple[float, float]:
    """Analytic (Ising, flip-flop) couplings for a given Coulomb rate.

    Inverts the Coulomb rate to an equivalent spacing and reuses the
    production pair formula, so prediction and model share one code path.
    The values carry no orientation factor: they are the pair strengths J,
    and the extractors divide ``Orientation.block_sign`` out of what they
    measure.
    """
    if xi <= 0.0:
        return 0.0, 0.0
    consts = CODATA2018
    d_cubed = consts.e**2 / (8.0 * math.pi * consts.eps0 * consts.m_e * dq.omega_z * xi)
    return pair_coupling_strengths(dq, d_cubed ** (1.0 / 3.0))


def _sector_eigensystem(sys: MicroscopicSystem, n_exc: int):
    sector = sys.excitation_sector(n_exc)
    h_sec = sys.hamiltonian[np.ix_(sector, sector)]
    energies, vectors = np.linalg.eigh(h_sec)
    return sector, energies, vectors


def _sector_position(sector: np.ndarray, full_index: int) -> int:
    pos = np.searchsorted(sector, full_index)
    if pos >= len(sector) or sector[pos] != full_index:
        raise ValueError("state not in the requested excitation sector")
    return int(pos)


def _mean_predicted_jxy(sys: MicroscopicSystem) -> float:
    preds = [predicted_couplings(q, sys.xi)[1] for q in sys.quantities]
    return math.sqrt(preds[0] * preds[1]) if all(p > 0 for p in preds) else 0.0


def extract_effective_jxy(
    sys: MicroscopicSystem,
    *,
    method: str = "fit",
) -> float:
    """Measured flip-flop coupling (rad/s) from the one-excitation dynamics.

    ``method="fit"``: evolve |up, down> with all motion in the ground
    state, locate the first arrival-population peak on a grid spanning two
    predicted oscillation periods, refine it quadratically, and convert the
    peak time to a coupling (magnitude only).  ``method="splitting"``: a
    quarter of the eigenvalue gap between the dressed symmetric and
    antisymmetric one-excitation states (signed; for the stacked orientation
    it is positive when the symmetric combination lies higher).  Both divide
    the orientation's ``block_sign`` out, so they estimate the pair strength
    J that ``predicted_couplings`` returns.
    """
    if method not in ("fit", "splitting"):
        raise ValueError("method must be 'fit' or 'splitting'")
    sign = sys.orientation.block_sign
    sector, energies, vectors = _sector_eigensystem(sys, 1)
    init = _sector_position(sector, sys.spin_ground_index(1, 0))
    targ = _sector_position(sector, sys.spin_ground_index(0, 1))

    if method == "splitting":
        sym = 0.5 * np.abs(vectors[init, :] + vectors[targ, :]) ** 2
        anti = 0.5 * np.abs(vectors[init, :] - vectors[targ, :]) ** 2
        k_sym = int(np.argmax(sym))
        k_anti = int(np.argmax(anti))
        if k_sym == k_anti:
            order = np.argsort(anti)[::-1]
            k_anti = int(order[1]) if len(order) > 1 else k_sym
        return float(energies[k_sym] - energies[k_anti]) / (-4.0 * sign)

    jxy_pred = _mean_predicted_jxy(sys)
    if jxy_pred > 0.0:
        # two periods of the predicted oscillation, at rate |block_sign| * J
        t_span = math.pi / (abs(sign) * jxy_pred)
    else:
        base = sys.xi if sys.xi > 0 else min(q.omega_z for q in sys.quantities)
        t_span = 2.0 * math.pi / base
    t = np.linspace(0.0, t_span, FIT_POINTS)
    amp = (vectors[targ, :] * vectors[init, :].conj()) @ np.exp(
        -1j * np.outer(energies, t)
    )
    p = np.abs(amp) ** 2

    peak = float(p.max())
    if peak < 1e-12:
        return 0.0
    contrast = peak - float(p.min())
    if contrast < CONTRAST_THRESHOLD:
        raise FitFailure(
            f"oscillation contrast {contrast:.4f} below {CONTRAST_THRESHOLD}; "
            "the coupling is not dispersive at these parameters"
        )
    # The arrival population is a slow sin^2 lobe with fast hybridization
    # ripples riding on it, so a bare local-max search can lock onto a
    # ripple on the rising edge.  Segment the curve at dips below half
    # maximum and take the first segment reaching 0.9*peak: that is the
    # first full-height envelope lobe, and its interior maximum is the
    # oscillation peak even when a later lobe is marginally higher.
    low = p < 0.5 * peak
    first_high = int(np.flatnonzero(p >= 0.9 * peak)[0])
    start = first_high
    while start > 1 and not low[start - 1]:
        start -= 1
    end = first_high
    while end < len(p) - 2 and not low[end + 1]:
        end += 1
    idx = start + int(np.argmax(p[start : end + 1]))
    idx = min(max(idx, 1), len(p) - 2)
    y1, y2, y3 = p[idx - 1], p[idx], p[idx + 1]
    denom = y1 - 2.0 * y2 + y3
    shift = 0.5 * (y1 - y3) / denom if denom != 0.0 else 0.0
    t_peak = t[idx] + shift * (t[1] - t[0])
    return float(math.pi / (4.0 * abs(sign) * t_peak))


def extract_effective_jz(sys: MicroscopicSystem) -> float:
    """Measured Ising coupling (rad/s) from dressed spin-configuration energies.

    Forms E(up,up) + E(down,down) - E(up,down) - E(down,up) over the dressed
    eigenstates connected to the spin basis states with motional ground
    state; that combination isolates the zz term and equals
    8 * block_sign * Jz: -8 Jz stacked and +4 Jz side by side.  The two
    single-excitation energies enter through their sum, which stays well
    defined when the pair hybridizes.
    """
    sector0, e0, v0 = _sector_eigensystem(sys, 0)
    pos_dd = _sector_position(sector0, sys.spin_ground_index(0, 0))
    w0 = np.abs(v0[pos_dd, :]) ** 2
    k0 = int(np.argmax(w0))
    if w0[k0] < OVERLAP_THRESHOLD:
        raise StateTrackingFailure(
            f"down-down dressed overlap {w0[k0]:.4f} below {OVERLAP_THRESHOLD}"
        )

    sector2, e2, v2 = _sector_eigensystem(sys, 2)
    pos_uu = _sector_position(sector2, sys.spin_ground_index(1, 1))
    w2 = np.abs(v2[pos_uu, :]) ** 2
    k2 = int(np.argmax(w2))
    if w2[k2] < OVERLAP_THRESHOLD:
        raise StateTrackingFailure(
            f"up-up dressed overlap {w2[k2]:.4f} below {OVERLAP_THRESHOLD}"
        )

    sector1, e1, v1 = _sector_eigensystem(sys, 1)
    pos_ud = _sector_position(sector1, sys.spin_ground_index(1, 0))
    pos_du = _sector_position(sector1, sys.spin_ground_index(0, 1))
    weight = np.abs(v1[pos_ud, :]) ** 2 + np.abs(v1[pos_du, :]) ** 2
    order = np.argsort(weight)[::-1]
    pair_sum = float(e1[order[0]] + e1[order[1]])

    combo = float(e2[k2] + e0[k0]) - pair_sum
    return combo / (8.0 * sys.orientation.block_sign)


def detuned_pair_hamiltonian(
    omega1: float, omega2: float, jxy: float, jz: float
) -> np.ndarray:
    """4x4 two-spin Hamiltonian with individual spin frequencies (rad/s).

    Basis order |dd>, |du>, |ud>, |uu>, site 1 most significant.
    """
    a, b = 0.5 * omega1, 0.5 * omega2
    return np.array(
        [
            [-a - b - 2.0 * jz, 0.0, 0.0, 0.0],
            [0.0, -a + b + 2.0 * jz, 2.0 * jxy, 0.0],
            [0.0, 2.0 * jxy, a - b + 2.0 * jz, 0.0],
            [0.0, 0.0, 0.0, a + b - 2.0 * jz],
        ],
        dtype=complex,
    )


def _propagator(h: np.ndarray, t: float) -> np.ndarray:
    energies, vectors = np.linalg.eigh(h)
    return (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T


def swap_amplitude(
    omega1: float, omega2: float, jxy: float, jz: float, t: float
) -> complex:
    """Amplitude on |down, up> after evolving |up, down> for time ``t``."""
    u = _propagator(detuned_pair_hamiltonian(omega1, omega2, jxy, jz), t)
    return complex(u[1, 2])


def hsd_fidelity(
    omega1: float,
    omega2: float,
    jxy: float,
    jz: float,
    t: float,
    *,
    theta: float | None = None,
    phi: float = 0.0,
) -> float:
    """Swap fidelity of a detuned two-spin pair against the resonant ideal.

    Site 1 carries the qubit, site 2 starts spin-down; the evolved state is
    compared with the state the same pair would reach were site 2's spin
    frequency equal to site 1's (an ideal full swap at the exchange time).
    With ``theta=None`` the result is Bloch-averaged over the sent qubit by
    an exact quadrature; otherwise a single orientation is evaluated.
    """
    h = detuned_pair_hamiltonian(omega1, omega2, jxy, jz)
    h_ideal = detuned_pair_hamiltonian(omega1, omega1, jxy, jz)
    m = _propagator(h_ideal, t).conj().T @ _propagator(h, t)

    def overlap_sq(c: np.ndarray, s: np.ndarray, phase: np.ndarray) -> np.ndarray:
        ov = (
            c * c * m[0, 0]
            + c * s * phase * m[0, 2]
            + s * c * np.conj(phase) * m[2, 0]
            + s * s * m[2, 2]
        )
        return np.abs(ov) ** 2

    if theta is not None:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        val = overlap_sq(np.asarray(c), np.asarray(s), np.asarray(np.exp(1j * phi)))
        return float(val)

    n_theta, n_phi = 16, 32
    u, w = np.polynomial.legendre.leggauss(n_theta)
    c = np.sqrt((1.0 + u) / 2.0)
    s = np.sqrt((1.0 - u) / 2.0)
    phis = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    vals = overlap_sq(
        c[:, None], s[:, None], np.exp(1j * phis)[None, :]
    )
    return float(w @ vals.mean(axis=1) / 2.0)


@dataclass(frozen=True)
class OracleCheck:
    """One predicted-vs-measured comparison in the validation suite."""

    name: str
    predicted: float
    measured: float
    deviation: float
    tolerance: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class OracleReport:
    """Validation-suite outcome: checks plus the cutoff-convergence table."""

    checks: tuple[OracleCheck, ...]
    convergence: tuple[tuple[int, float], ...]
    convergence_monotone: bool
    passed: bool

    def as_text(self) -> str:
        lines = ["effective-coupling validation suite"]
        header = f"  {'check':38s} {'predicted':>14s} {'measured':>14s} {'deviation':>11s} {'tol':>8s}  status"
        lines.append(header)
        for c in self.checks:
            note = f"  ({c.note})" if c.note else ""
            lines.append(
                f"  {c.name:38s} {c.predicted:14.6e} {c.measured:14.6e}"
                f" {c.deviation:11.3e} {c.tolerance:8.1e}  "
                f"{'pass' if c.passed else 'FAIL'}{note}"
            )
        lines.append("  cutoff convergence (splitting method):")
        prev = None
        for k_max, j in self.convergence:
            step = "" if prev is None else f"  step {abs(j - prev):.3e}"
            lines.append(f"    k_max={k_max}  J={j:.12e}{step}")
            prev = j
        lines.append(
            f"  convergence steps monotone: {'yes' if self.convergence_monotone else 'NO'}"
        )
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_validation_suite(
    *,
    epsilon: float = 0.025,
    freq_ratio: float = 15.0,
    xi_over_omega_z: float = 0.01,
    trunc: FockTruncation | tuple[int, int] = (3, 3),
    orientation: Orientation = Orientation.AXIAL_Z,
    anomaly_mode: AnomalyMode = AnomalyMode.EXACT_G,
    tolerance: float = 0.15,
) -> OracleReport:
    """Run the standard oracle checks at one (exaggerated) parameter point.

    Compares the measured flip-flop coupling (both extraction methods) and
    Ising coupling against the analytic predictions, certifies the detuned
    swap fidelity against its closed form, and tabulates the convergence of
    the splitting-based coupling as the axial cutoff grows.
    """
    if not isinstance(trunc, FockTruncation):
        trunc = FockTruncation(*trunc)
    dq = synthetic_quantities(epsilon, freq_ratio, anomaly_mode)
    xi = xi_over_omega_z * dq.omega_z
    sys = build_microscopic(dq, xi, orientation, trunc)
    jz_pred, jxy_pred = predicted_couplings(dq, xi)

    def rel(measured: float, predicted: float) -> float:
        return abs(measured - predicted) / abs(predicted) if predicted != 0 else abs(measured)

    checks = []

    def guarded(name: str, predicted: float, fn) -> None:
        try:
            measured = fn()
        except (FitFailure, StateTrackingFailure) as exc:
            checks.append(
                OracleCheck(name, predicted, float("nan"), float("inf"),
                            tolerance, False, note=str(exc))
            )
            return
        dev = rel(measured, predicted)
        checks.append(
            OracleCheck(name, predicted, measured, dev, tolerance, dev <= tolerance)
        )

    guarded(
        "flip-flop coupling (oscillation fit)", jxy_pred,
        lambda: extract_effective_jxy(sys, method="fit"),
    )
    guarded(
        "flip-flop coupling (level splitting)", jxy_pred,
        lambda: extract_effective_jxy(sys, method="splitting"),
    )
    guarded(
        "Ising coupling (dressed energies)", jz_pred,
        lambda: extract_effective_jz(sys),
    )

    jxy_ref = jxy_pred if jxy_pred > 0 else 1.0
    t_ex = math.pi / (4.0 * jxy_ref)
    resonant = hsd_fidelity(0.0, 0.0, jxy_ref, jz_pred, t_ex)
    checks.append(
        OracleCheck("resonant swap fidelity", 1.0, resonant, abs(resonant - 1.0), 1e-12,
                    abs(resonant - 1.0) <= 1e-12)
    )
    from .fidelity_model import fd

    detuned = hsd_fidelity(0.0, 4.0 * jxy_ref, jxy_ref, jz_pred, t_ex)
    target = fd(1.0)
    checks.append(
        OracleCheck("detuned swap vs closed form (zeta=1)", target, detuned,
                    abs(detuned - target), 1e-10, abs(detuned - target) <= 1e-10)
    )

    convergence = []
    for k_max in range(1, trunc.k_max + 2):
        sys_k = build_microscopic(dq, xi, orientation, FockTruncation(trunc.n_max, k_max))
        convergence.append((k_max, extract_effective_jxy(sys_k, method="splitting")))
    steps = [abs(b[1] - a[1]) for a, b in zip(convergence, convergence[1:])]
    monotone = all(s2 < s1 for s1, s2 in zip(steps, steps[1:]))

    passed = all(c.passed for c in checks) and monotone
    return OracleReport(
        checks=tuple(checks),
        convergence=tuple(convergence),
        convergence_monotone=monotone,
        passed=passed,
    )
