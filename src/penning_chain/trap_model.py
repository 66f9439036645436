"""Single-trap derived quantities and validity checks.

From the applied fields and the trap geometry this module derives the three
motional mode frequencies, the spin precession and difference frequencies, the
axial ground-state amplitude, the dimensionless gradient coupling, and the
pairwise Coulomb rate.  All frequencies are angular (rad/s); conversion to
cyclic Hz happens only at input/output boundaries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

from .constants import CODATA2018


class AnomalyMode(Enum):
    """How the spin/cyclotron difference frequency is obtained.

    EXACT_G takes the difference implied by the real g-factor.  APPROX_1E3
    pins the difference to 1e-3 of the cyclotron frequency, a common design
    shorthand; it changes nothing else.
    """

    EXACT_G = "exact"
    APPROX_1E3 = "approx"


class HierarchyViolation(ValueError):
    """Mode frequencies do not satisfy magnetron << axial << cyclotron."""


class ComplexFrequency(ValueError):
    """Radial confinement lost: omega_c**2 < 2 * omega_z**2."""


# '<<' between mode frequencies: below HIERARCHY_ERROR_FACTOR the separation is
# treated as broken; between the two factors it only draws a warning.
HIERARCHY_ERROR_FACTOR = 5.0
HIERARCHY_WARN_FACTOR = 10.0

# Overall regime conditions pass when every margin ratio is below this.
REGIME_MARGIN = 0.1


@dataclass(frozen=True)
class TrapParams:
    """Applied fields and geometry of one micro-trap.

    The axial frequency is given either directly (``omega_z_in``, rad/s) or
    through the electrode voltage and length scale (``V0``, ``ell``); exactly
    one of the two forms must be supplied.
    """

    B0: float                       # uniform axial field, T
    b: float                        # linear field gradient at the trap, T/m
    omega_z_in: float | None = None  # axial frequency, rad/s
    V0: float | None = None          # trapping potential, V
    ell: float | None = None         # trap length scale, m
    anomaly_mode: AnomalyMode = AnomalyMode.EXACT_G

    def __post_init__(self) -> None:
        if not self.B0 > 0.0:
            raise ValueError("B0 must be strictly positive")
        if self.b < 0.0:
            raise ValueError("gradient b must be non-negative")
        have_direct = self.omega_z_in is not None
        have_voltage = self.V0 is not None or self.ell is not None
        if have_direct and have_voltage:
            raise ValueError("give either omega_z_in or (V0, ell), not both")
        if not have_direct:
            if self.V0 is None or self.ell is None:
                raise ValueError("give either omega_z_in or both V0 and ell")
            if self.V0 <= 0.0 or self.ell <= 0.0:
                raise ValueError("V0 and ell must be strictly positive")
        elif not self.omega_z_in > 0.0:
            raise ValueError("omega_z_in must be strictly positive")


@dataclass(frozen=True)
class DerivedQuantities:
    """Frequency set and coupling scales of one trap (all rad/s except noted)."""

    omega_m: float        # magnetron
    omega_c: float        # bare cyclotron
    omega_z: float        # axial
    omega_s: float        # spin precession
    omega_a: float        # spin minus cyclotron
    omega_c_tilde: float  # shifted cyclotron, sqrt(omega_c**2 - 2 omega_z**2)
    delta_z: float        # axial ground-state amplitude, m
    epsilon: float        # dimensionless gradient coupling
    anomaly_mode: AnomalyMode = AnomalyMode.EXACT_G


def derive_quantities(params: TrapParams, *, strict: bool = True) -> DerivedQuantities:
    """Compute all derived quantities for one trap.

    With ``strict=True`` a broken frequency hierarchy raises
    ``HierarchyViolation``; with ``strict=False`` it is downgraded to a
    warning so marginal design points can still be evaluated.
    """
    consts = CODATA2018
    omega_c = consts.e * params.B0 / consts.m_e
    if params.omega_z_in is not None:
        omega_z = params.omega_z_in
    else:
        omega_z = math.sqrt(2.0 * consts.e * params.V0 / (consts.m_e * params.ell**2))

    if omega_c**2 < 2.0 * omega_z**2:
        raise ComplexFrequency(
            f"omega_c**2 < 2 omega_z**2 (omega_c = {omega_c:.6g}, "
            f"omega_z = {omega_z:.6g} rad/s): no stable radial motion"
        )

    omega_m = omega_z**2 / (2.0 * omega_c)
    omega_s = 0.5 * consts.g * omega_c
    if params.anomaly_mode is AnomalyMode.EXACT_G:
        omega_a = omega_s - omega_c
    else:
        omega_a = 1e-3 * omega_c
    omega_c_tilde = math.sqrt(omega_c**2 - 2.0 * omega_z**2)

    delta_z = math.sqrt(consts.hbar / (2.0 * consts.m_e * omega_z))
    epsilon = consts.e * params.b * delta_z / (consts.m_e * omega_z)

    _check_hierarchy("magnetron vs axial", omega_z / omega_m, strict)
    _check_hierarchy("axial vs cyclotron", omega_c / omega_z, strict)

    return DerivedQuantities(
        omega_m=omega_m,
        omega_c=omega_c,
        omega_z=omega_z,
        omega_s=omega_s,
        omega_a=omega_a,
        omega_c_tilde=omega_c_tilde,
        delta_z=delta_z,
        epsilon=epsilon,
        anomaly_mode=params.anomaly_mode,
    )


def _check_hierarchy(label: str, factor: float, strict: bool) -> None:
    if factor >= HIERARCHY_WARN_FACTOR:
        return
    if factor < HIERARCHY_ERROR_FACTOR and strict:
        raise HierarchyViolation(
            f"frequency hierarchy {label}: separation factor {factor:.3g} "
            f"is below {HIERARCHY_ERROR_FACTOR:g}"
        )
    warnings.warn(
        f"frequency hierarchy {label}: separation factor {factor:.3g} "
        f"is below {HIERARCHY_WARN_FACTOR:g}",
        stacklevel=3,
    )


def coulomb_scale(dq: DerivedQuantities, d: float) -> float:
    """Pairwise Coulomb coupling rate (rad/s) at inter-trap distance ``d``.

    Equals the Coulomb energy of the pair times the squared ratio of the
    axial ground-state amplitude to the distance, divided by hbar.
    """
    if not d > 0.0:
        raise ValueError("inter-trap distance must be strictly positive")
    consts = CODATA2018
    return consts.e**2 / (8.0 * math.pi * consts.eps0 * consts.m_e * dq.omega_z * d**3)


@dataclass(frozen=True)
class RegimeCondition:
    name: str
    ratio: float  # must be < REGIME_MARGIN to pass
    ok: bool


@dataclass(frozen=True)
class RegimeReport:
    conditions: tuple[RegimeCondition, ...]
    ok: bool

    def failing(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.conditions if not c.ok)


def validate_regime(
    dq: DerivedQuantities,
    xi: float = 0.0,
    l_bar: float = 0.0,
) -> RegimeReport:
    """Report each validity condition of the weak-coupling description.

    Each condition is expressed as a ratio that must stay below
    ``REGIME_MARGIN``; the report never raises.
    """
    ratios = (
        ("magnetron_below_axial", dq.omega_m / dq.omega_z),
        ("axial_below_cyclotron", dq.omega_z / dq.omega_c),
        ("weak_gradient", dq.epsilon),
        ("magnetron_occupation", l_bar * dq.omega_m / dq.omega_c),
        ("cross_trap_rotating_terms", xi * dq.omega_z / (dq.omega_c_tilde * dq.omega_c)),
    )
    conditions = tuple(
        RegimeCondition(name=name, ratio=ratio, ok=ratio < REGIME_MARGIN)
        for name, ratio in ratios
    )
    return RegimeReport(conditions=conditions, ok=all(c.ok for c in conditions))
