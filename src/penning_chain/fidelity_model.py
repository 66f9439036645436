"""Thermal error budget and total fidelity of an excitation swap.

The fidelity of one excitation transfer decomposes as

    F = 1 - E_r - epsilon**2 * E_S,

where E_r is the error from thermally distributed spin-frequency detunings
slowing the exchange between sites, and E_S is the dressing error from the
frame transformation that turns spin-motion coupling into an effective
spin-spin coupling.  Both pieces are driven by the mean Fock numbers of the
three motional modes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import CODATA2018
from .trap_model import DerivedQuantities

TAIL_TARGET = 1e-10
DEFAULT_MAX_TERMS = 4_000_000
TRANSITION_FLAG_THRESHOLD = 1e-4


class TruncationWarning(UserWarning):
    """Thermal-sum cutoffs were clamped by the configured term budget."""


class ValidityWarning(UserWarning):
    """A computed fidelity left [0, 1], signalling perturbative breakdown."""


@dataclass(frozen=True)
class ThermalOccupations:
    """Mean Fock numbers of the three motional modes of each electron."""

    k_bar: float  # axial
    n_bar: float  # cyclotron
    l_bar: float  # magnetron

    def __post_init__(self) -> None:
        for name in ("k_bar", "n_bar", "l_bar"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def from_temperature(
        cls,
        dq: DerivedQuantities,
        temperature: float,
        l_bar: float = 0.0,
    ) -> "ThermalOccupations":
        """Axial and cyclotron modes thermalized at ``temperature``.

        The magnetron mode sits on an inverted energy ladder and does not
        equilibrate to a small occupation, so its mean Fock number is
        supplied explicitly.
        """
        return cls(
            k_bar=occupation_from_temperature(dq.omega_z, temperature),
            n_bar=occupation_from_temperature(dq.omega_c, temperature),
            l_bar=l_bar,
        )


def occupation_from_temperature(omega: float, temperature: float) -> float:
    """Mean Fock number 1/(exp(hbar*omega/(k_B*T)) - 1) of a thermal mode."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if temperature < 0.0:
        raise ValueError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(CODATA2018.hbar * omega / (CODATA2018.k_B * temperature))


def thermal_prob(m_bar: float, m) -> float | np.ndarray:
    """Probability of the m-th Fock state in a thermal state with mean m_bar."""
    if m_bar < 0.0:
        raise ValueError("m_bar must be >= 0")
    m_arr = np.asarray(m)
    if np.any(m_arr < 0):
        raise ValueError("Fock index must be >= 0")
    ratio = m_bar / (1.0 + m_bar)
    p = np.power(ratio, m_arr) / (1.0 + m_bar)
    return float(p) if m_arr.ndim == 0 else p


def difference_prob(delta, m_bar: float) -> float | np.ndarray:
    """Probability that two independent thermal draws differ by ``delta``.

    Collapsing the double sum over (m1, m2) at fixed m2 - m1 gives a
    two-sided geometric distribution; this is exact, not an approximation.
    """
    if m_bar < 0.0:
        raise ValueError("m_bar must be >= 0")
    ratio = m_bar / (1.0 + m_bar)
    d_arr = np.abs(np.asarray(delta))
    p = np.power(ratio, d_arr) / (1.0 + 2.0 * m_bar)
    return float(p) if d_arr.ndim == 0 else p


def thermal_cutoff(m_bar: float) -> int:
    """Fock cutoff keeping the neglected thermal weight below ``TAIL_TARGET``."""
    if m_bar < 0.0:
        raise ValueError("m_bar must be >= 0")
    return math.ceil(m_bar * math.log(1.0 / TAIL_TARGET)) + 10


def fd(zeta) -> float | np.ndarray:
    """Bloch-averaged fidelity of an excitation swap with relative detuning zeta.

    ``zeta`` is the spin-frequency difference of the two sites in units of
    the full exchange splitting.  Zero detuning gives 1; large detuning
    freezes the excitation in place and the average fidelity tends to 1/3.
    """
    z = np.asarray(zeta, dtype=float)
    root = np.sqrt(1.0 + z * z)
    s = np.sin(0.5 * np.pi * root)
    val = (1.0 + np.cos(0.5 * np.pi * z) * s / root + (s * s) / (root * root)) / 3.0
    return float(val) if z.ndim == 0 else val


def _shift_coefficients(dq: DerivedQuantities) -> tuple[float, float]:
    """Dimensionless weights of cyclotron and magnetron quanta in the shift."""
    a = dq.omega_z**2 / (2.0 * dq.omega_c * dq.omega_a) - 2.0
    b = dq.omega_z**2 / (2.0 * dq.omega_c**2)
    return a, b


def spin_shift(dq: DerivedQuantities, n, l) -> float | np.ndarray:
    """Correction to one electron's spin frequency from its motional state.

    The n- and l-independent part shifts every spin equally and can be
    absorbed into the spin frequency; the Fock-number-dependent parts
    produce site-to-site detunings in a thermal ensemble.
    """
    n_arr, l_arr = np.asarray(n), np.asarray(l)
    if np.any(n_arr < 0) or np.any(l_arr < 0):
        raise ValueError("Fock indices must be >= 0")
    a, b = _shift_coefficients(dq)
    const = dq.omega_z**2 / (2.0 * dq.omega_c * dq.omega_a)
    val = dq.epsilon**2 * dq.omega_z * (const + a * n_arr - b * l_arr)
    return float(val) if val.ndim == 0 else val


def delta_s(dq: DerivedQuantities, n1, l1, n2, l2) -> float | np.ndarray:
    """Spin-frequency detuning between two electrons with Fock numbers
    (n1, l1) and (n2, l2) in the cyclotron and magnetron modes.

    Antisymmetric under swapping the two electrons; axial quanta shift both
    spins equally and drop out.
    """
    arrs = [np.asarray(v) for v in (n1, l1, n2, l2)]
    if any(np.any(arr < 0) for arr in arrs):
        raise ValueError("Fock indices must be >= 0")
    a, b = _shift_coefficients(dq)
    val = dq.epsilon**2 * dq.omega_z * (a * (arrs[2] - arrs[0]) - b * (arrs[3] - arrs[1]))
    return float(val) if np.asarray(val).ndim == 0 else val


def delta_s_spread(dq: DerivedQuantities, occ: ThermalOccupations) -> float:
    """Root-mean-square thermal detuning between two electrons (rad/s).

    The difference of two independent thermal Fock numbers has variance
    2*m_bar*(1+m_bar), and the cyclotron and magnetron contributions are
    independent.
    """
    a, b = _shift_coefficients(dq)
    var = (
        a * a * 2.0 * occ.n_bar * (1.0 + occ.n_bar)
        + b * b * 2.0 * occ.l_bar * (1.0 + occ.l_bar)
    )
    return dq.epsilon**2 * dq.omega_z * math.sqrt(var)


@dataclass(frozen=True)
class ResidualError:
    """Residual-detuning error E_r with its truncation diagnostics."""

    value: float
    tail_mass: float
    cutoff_cyclotron: int
    cutoff_magnetron: int
    method: str


def _clamp_cutoffs(mn: int, ml: int, terms_per_cell: int, max_terms: int) -> tuple[int, int]:
    """Shrink per-mode cutoffs proportionally to respect the term budget."""

    def n_terms(a: int, b: int) -> int:
        return ((a + 1) ** 2) * ((b + 1) ** 2) if terms_per_cell == 4 else (2 * a + 1) * (2 * b + 1)

    if n_terms(mn, ml) <= max_terms:
        return mn, ml
    warnings.warn(
        "thermal-sum cutoffs exceed the term budget; clamping (tail mass will grow)",
        TruncationWarning,
        stacklevel=3,
    )
    while n_terms(mn, ml) > max_terms and max(mn, ml) > 1:
        if mn >= ml:
            mn -= max(1, mn // 10)
        else:
            ml -= max(1, ml // 10)
    return mn, ml


def error_residual(
    dq: DerivedQuantities,
    occ: ThermalOccupations,
    jxy: float,
    *,
    method: str = "difference",
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ResidualError:
    """Transfer error from thermally distributed spin-frequency detunings.

    The detuning depends only on the differences of the two electrons'
    cyclotron and magnetron Fock numbers, so the four-fold thermal sum
    collapses exactly to a double sum over differences (``method
    ="difference"``, the default).  ``method="direct"`` performs the full
    four-fold sum and exists to validate the collapse on small cutoffs.
    """
    if jxy <= 0.0:
        raise ValueError("jxy must be positive")
    if method not in ("difference", "direct"):
        raise ValueError("method must be 'difference' or 'direct'")

    mn, ml = _clamp_cutoffs(
        thermal_cutoff(occ.n_bar),
        thermal_cutoff(occ.l_bar),
        4 if method == "direct" else 1,
        max_terms,
    )

    a, b = _shift_coefficients(dq)
    scale = dq.epsilon**2 * dq.omega_z / (4.0 * jxy)

    if method == "difference":
        dn = np.arange(-mn, mn + 1)
        dl = np.arange(-ml, ml + 1)
        wn = difference_prob(dn, occ.n_bar)
        wl = difference_prob(dl, occ.l_bar)
        zeta = scale * (a * dn[:, None] - b * dl[None, :])
        kept = float(wn.sum() * wl.sum())
        value = 1.0 - float(wn @ fd(zeta) @ wl)
    else:
        n = np.arange(mn + 1)
        l = np.arange(ml + 1)
        pn = thermal_prob(occ.n_bar, n)
        pl = thermal_prob(occ.l_bar, l)
        wn_pairs = np.outer(pn, pn).ravel()
        dn_pairs = (n[None, :] - n[:, None]).ravel()
        wl_pairs = np.outer(pl, pl).ravel()
        dl_pairs = (l[None, :] - l[:, None]).ravel()
        zeta = scale * (a * dn_pairs[:, None] - b * dl_pairs[None, :])
        kept = float(pn.sum() ** 2 * pl.sum() ** 2)
        value = 1.0 - float(wn_pairs @ fd(zeta) @ wl_pairs)

    return ResidualError(
        value=value,
        tail_mass=1.0 - kept,
        cutoff_cyclotron=mn,
        cutoff_magnetron=ml,
        method=method,
    )


class BlochAveraging(Enum):
    """How the sender-qubit orientation enters the dressing error."""

    CLOSED_FORM = "closed"
    NUMERIC = "numeric"


def _canonical_weights(dq: DerivedQuantities) -> tuple[float, float, float]:
    wc = dq.omega_z / dq.omega_c
    cyc = (dq.omega_z / dq.omega_a) ** 2
    mag = (dq.omega_z / (dq.omega_s - dq.omega_m)) ** 2
    return wc, cyc, mag


def error_canonical_unaveraged(
    dq: DerivedQuantities,
    occ: ThermalOccupations,
    n_sites: int,
    theta,
    phi: float = 0.0,
) -> float | np.ndarray:
    """Dressing error of a full transfer for a fixed sender orientation.

    Evaluated at the swap time, where the chosen Bloch vector has moved from
    the first to the last site and the sector sums over all sites are known
    in closed form.  The azimuth ``phi`` cancels (the only coherences enter
    as conjugate pairs on the two end sites) and is accepted for interface
    symmetry only.
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    del phi
    theta_arr = np.asarray(theta, dtype=float)
    wc, cyc, mag = _canonical_weights(dq)
    n = n_sites
    kb, nb, lb = occ.k_bar, occ.n_bar, occ.l_bar

    sin2 = np.sin(theta_arr) ** 2
    sz_sum = -(n - 1) - np.cos(theta_arr)
    axial = 0.5 * sin2 * (2.0 * kb + 1.0)
    motion = 0.25 * wc * (
        cyc * (n * (2.0 * nb + 1.0) + sz_sum)
        + mag * (n * (2.0 * lb + 1.0) - sz_sum)
        - (cyc * (2.0 * nb + 1.0) + mag * (2.0 * lb + 1.0)) * 0.5 * sin2
    )
    val = axial + motion
    return float(val) if theta_arr.ndim == 0 else val


def _error_canonical_closed(dq: DerivedQuantities, occ: ThermalOccupations, n: int) -> float:
    wc, cyc, mag = _canonical_weights(dq)
    axial = (2.0 * occ.k_bar + 1.0) / 3.0
    motion = (wc / 6.0) * (
        cyc * (2.0 * occ.n_bar + 1.0 + 3.0 * (n - 1) * occ.n_bar)
        + mag * (2.0 * occ.l_bar + 1.0 + 3.0 * (n - 1) * (occ.l_bar + 1.0))
    )
    return axial + motion


def error_canonical(
    dq: DerivedQuantities,
    occ: ThermalOccupations,
    n_sites: int,
    averaging: BlochAveraging = BlochAveraging.CLOSED_FORM,
) -> float:
    """Bloch-averaged dressing error E_S of a full excitation transfer.

    ``CLOSED_FORM`` evaluates the analytic average; ``NUMERIC`` integrates
    the un-averaged error over a Gauss-Legendre grid in cos(theta) times a
    uniform azimuth grid, as an independent cross-check.
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    if averaging is BlochAveraging.CLOSED_FORM:
        return _error_canonical_closed(dq, occ, n_sites)

    n_theta, n_phi = 32, 64
    u, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(u)
    phis = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    vals = np.empty((n_theta, n_phi))
    for j, phi in enumerate(phis):
        vals[:, j] = error_canonical_unaveraged(dq, occ, n_sites, theta, phi)
    return float(w @ vals.mean(axis=1) / 2.0)


def error_canonical_two_site(dq: DerivedQuantities, occ: ThermalOccupations) -> float:
    """Dressing error of a single swap between two electrons.

    Independent arrangement of the same average; must agree with
    ``error_canonical(..., n_sites=2)`` identically.
    """
    wc, cyc, mag = _canonical_weights(dq)
    return (
        (2.0 * occ.k_bar + 1.0) / 3.0
        + wc * cyc / 6.0 * (5.0 * occ.n_bar + 1.0)
        + wc * mag / 6.0 * (5.0 * occ.l_bar + 4.0)
    )


@dataclass(frozen=True)
class TransitionEstimate:
    """Order-of-magnitude leakage probability for one residual-coupling class."""

    label: str
    probability: float
    flagged: bool


def transition_probabilities(
    dq: DerivedQuantities, occ: ThermalOccupations, xi: float
) -> tuple[TransitionEstimate, ...]:
    """Leakage estimates for the couplings dropped by the rotating-frame average.

    Returns one order-of-magnitude probability per residual term class,
    flagging any that exceeds 1e-4.
    """
    if xi < 0.0:
        raise ValueError("xi must be >= 0")
    eps, wz, wc, wa = dq.epsilon, dq.omega_z, dq.omega_c, dq.omega_a
    p_sideband = eps**4 * wz**3 / (wc * (wz - wa) ** 2) * occ.k_bar * occ.n_bar
    p_exchange = eps**2 * (xi / wz) ** 2
    p_cross = p_exchange * (wz / wc) ** 3 * (wz / wa) ** 4
    triples = (
        ("axial-assisted spin-cyclotron flip", p_sideband),
        ("off-resonant inter-trap motional exchange", p_exchange),
        ("inter-trap spin-motion cross resonance", p_cross),
    )
    return tuple(
        TransitionEstimate(label, p, p > TRANSITION_FLAG_THRESHOLD) for label, p in triples
    )


@dataclass(frozen=True)
class FidelityReport:
    """Total fidelity with its error components and diagnostics.

    ``f_total`` is reported as-is even when it leaves [0, 1]; an
    out-of-range value is the perturbative-breakdown indicator, not a bug.
    """

    f_total: float
    error_residual_value: float
    error_canonical_raw: float
    error_canonical_scaled: float
    delta_s_spread: float
    tail_mass: float
    jxy: float
    n_sites: int
    epsilon: float
    mode_tags: tuple[str, ...]

    @property
    def in_range(self) -> bool:
        return 0.0 <= self.f_total <= 1.0

    def as_dict(self) -> dict:
        return {
            "f_total": self.f_total,
            "error_residual": self.error_residual_value,
            "error_canonical_raw": self.error_canonical_raw,
            "error_canonical_scaled": self.error_canonical_scaled,
            "delta_s_spread_rad_s": self.delta_s_spread,
            "tail_mass": self.tail_mass,
            "jxy_rad_s": self.jxy,
            "n_sites": self.n_sites,
            "epsilon": self.epsilon,
            "mode_tags": list(self.mode_tags),
            "in_range": self.in_range,
        }


def total_fidelity(
    dq: DerivedQuantities,
    occ: ThermalOccupations,
    jxy: float,
    n_sites: int = 2,
) -> FidelityReport:
    """Combine the residual and dressing errors into F = 1 - E_r - eps^2 E_S.

    The residual error is defined for a single swap; for longer chains the
    report multiplies the pair value by the number of nearest-neighbor swaps
    and tags the result as a heuristic extension.
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    pair = error_residual(dq, occ, jxy)
    e_r = pair.value if n_sites == 2 else (n_sites - 1) * pair.value
    e_s = error_canonical(dq, occ, n_sites)
    e_s_scaled = dq.epsilon**2 * e_s
    f_total = 1.0 - e_r - e_s_scaled
    tags = [f"anomaly={dq.anomaly_mode.value}"]
    if n_sites == 2:
        tags.append("residual=pair")
    else:
        tags.append(f"residual=heuristic extension ({n_sites - 1}x nearest-neighbor pair)")
    if not 0.0 <= f_total <= 1.0:
        warnings.warn(
            f"total fidelity {f_total} outside [0, 1]: perturbative expansion invalid here",
            ValidityWarning,
            stacklevel=2,
        )
        tags.append("out-of-range")
    return FidelityReport(
        f_total=f_total,
        error_residual_value=e_r,
        error_canonical_raw=e_s,
        error_canonical_scaled=e_s_scaled,
        delta_s_spread=delta_s_spread(dq, occ),
        tail_mass=pair.tail_mass,
        jxy=jxy,
        n_sites=n_sites,
        epsilon=dq.epsilon,
        mode_tags=tuple(tags),
    )
