"""Pairwise effective spin-spin couplings for a linear array of traps.

The gradient-induced spin-motion coupling, relayed between traps by the
Coulomb interaction, produces an Ising-type coupling (through the axial
motion) and a flip-flop coupling (through the cyclotron motion).  Both fall
off with the cube of the distance, so the full all-pairs matrix is computed;
a flag restricts to nearest neighbours for comparison with ideal-chain
studies.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import CODATA2018, CONSTANTS_VERSION
from .trap_model import (
    AnomalyMode,
    DerivedQuantities,
    coulomb_scale,
    validate_regime,
)


class Orientation(Enum):
    """Array axis relative to the uniform magnetic field."""

    AXIAL_Z = "z"       # traps stacked along the field
    TRANSVERSE_X = "x"  # traps side by side, orthogonal to the field

    @property
    def block_sign(self) -> float:
        """Weight of the dipolar coupling block: -1 stacked, +1/2 side by side.

        Every place the orientation enters a Hamiltonian or an extracted
        coupling reads this factor.
        """
        return -1.0 if self is Orientation.AXIAL_Z else 0.5


class RegimeError(ValueError):
    """Coupling computation refused because a validity condition failed."""


class ZeroCoupling(ValueError):
    """A finite flip-flop coupling is required."""


@dataclass(frozen=True)
class ChainGeometry:
    """Array orientation and site positions (m) along the array axis."""

    orientation: Orientation
    positions: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.positions) < 2:
            raise ValueError("a chain needs at least two sites")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("site positions must be strictly increasing")

    @property
    def n_sites(self) -> int:
        return len(self.positions)

    def distance(self, i: int, j: int) -> float:
        return abs(self.positions[j] - self.positions[i])

    def distances(self) -> np.ndarray:
        pos = np.asarray(self.positions)
        return np.abs(pos[:, None] - pos[None, :])


def uniform_chain(
    n_sites: int,
    spacing: float,
    orientation: Orientation = Orientation.AXIAL_Z,
) -> ChainGeometry:
    """Equally spaced chain starting at the origin."""
    if not spacing > 0.0:
        raise ValueError("spacing must be strictly positive")
    return ChainGeometry(
        orientation=orientation,
        positions=tuple(i * spacing for i in range(n_sites)),
    )


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric pairwise coupling strengths (rad/s), zero on the diagonal."""

    jz: np.ndarray         # Ising couplings
    jxy: np.ndarray        # flip-flop couplings
    xi: np.ndarray         # pairwise Coulomb rates
    distances: np.ndarray  # pair distances, m
    orientation: Orientation
    anomaly_mode: AnomalyMode

    @property
    def n_sites(self) -> int:
        return self.jz.shape[0]


def pair_coupling_strengths(dq: DerivedQuantities, d: float) -> tuple[float, float]:
    """(Ising, flip-flop) coupling of one trap pair at distance ``d``."""
    consts = CODATA2018
    xi = coulomb_scale(dq, d)
    jz = (consts.g / 2.0) ** 2 * xi * dq.epsilon**2
    jxy = (
        (consts.g / 4.0) ** 2
        * xi
        * dq.epsilon**2
        * dq.omega_z**4
        / (dq.omega_a**2 * dq.omega_c_tilde**2)
    )
    return jz, jxy


def _cubes(d: np.ndarray) -> np.ndarray:
    """Elementwise ``d**3`` rounded as the scalar ``coulomb_scale`` rounds it.

    numpy's array power rounds some cubes differently from the C ``pow`` of
    a scalar, so each distinct distance is cubed as a scalar.
    """
    values = np.unique(d)
    cubes = np.array([x**3 for x in values.tolist()])
    return cubes[np.searchsorted(values, d)]


def coupling_matrix(
    dq: DerivedQuantities | list[DerivedQuantities] | tuple[DerivedQuantities, ...],
    geom: ChainGeometry,
    *,
    l_bar: float = 0.0,
    nearest_neighbor_only: bool = False,
    force: bool = False,
) -> CouplingMatrix:
    """All-pairs coupling matrix for the chain.

    ``dq`` is one set of derived quantities for identical traps or a per-site
    sequence.  The validity regime of every distinct trap is checked first
    (at the shortest pair distance, i.e. the largest Coulomb rate); failures
    raise ``RegimeError`` unless ``force`` is set.

    Each entry repeats the operations of ``coulomb_scale`` and
    ``pair_coupling_strengths``, so it equals the scalar value bit for bit.
    For unequal sites the pair value is the geometric mean of the two
    single-site values; this is the one place that convention lives.
    """
    consts = CODATA2018
    n = geom.n_sites
    if isinstance(dq, DerivedQuantities):
        site_dq = [dq] * n
    else:
        site_dq = list(dq)
        if len(site_dq) != n:
            raise ValueError(f"need {n} site entries, got {len(site_dq)}")

    modes = {q.anomaly_mode for q in site_dq}
    if len(modes) != 1:
        raise ValueError("all sites must use the same anomaly mode")
    (mode,) = modes

    d_min = min(geom.distance(i, i + 1) for i in range(n - 1))
    failing: list[str] = []
    for q in dict.fromkeys(site_dq):
        report = validate_regime(q, xi=coulomb_scale(q, d_min), l_bar=l_bar)
        failing.extend(report.failing())
    if failing and not force:
        raise RegimeError(
            "validity conditions failed: " + ", ".join(sorted(set(failing)))
        )

    dist = geom.distances()
    if nearest_neighbor_only:
        pairs = np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    else:
        pairs = ~np.eye(n, dtype=bool)

    def column(values) -> np.ndarray:
        return np.array(values)[:, None]

    # Row i holds site i's single-site values at every distance d_ij.
    denominator = _cubes(dist)
    denominator *= column(
        [8.0 * math.pi * consts.eps0 * consts.m_e * q.omega_z for q in site_dq]
    )
    xi = np.divide(consts.e**2, denominator, out=np.zeros((n, n)), where=pairs)
    del denominator
    epsilon2 = column([q.epsilon**2 for q in site_dq])
    jz = (consts.g / 2.0) ** 2 * xi
    jz *= epsilon2
    jxy = (consts.g / 4.0) ** 2 * xi
    jxy *= epsilon2
    jxy *= column([q.omega_z**4 for q in site_dq])
    jxy /= column([q.omega_a**2 * q.omega_c_tilde**2 for q in site_dq])

    # Geometric mean of the two sites' values, in place.
    for row in (jz, jxy, xi):
        row *= row.T.copy()
        np.sqrt(row, out=row)

    return CouplingMatrix(
        jz=jz,
        jxy=jxy,
        xi=xi,
        distances=dist,
        orientation=geom.orientation,
        anomaly_mode=mode,
    )


def swap_time(jxy: float) -> float:
    """Time for a full end-to-end state swap of an ideal two-site chain."""
    if not jxy > 0.0:
        raise ZeroCoupling("flip-flop coupling must be strictly positive")
    return math.pi / (4.0 * jxy)


def isotropy_ratio(dq: DerivedQuantities) -> float:
    """Ratio of twice the Ising coupling to the flip-flop coupling.

    Equals 8 * omega_a**2 * omega_c_tilde**2 / omega_z**4; the gradient and
    distance dependence cancels.  A ratio of one marks the isotropic
    Heisenberg point.
    """
    return 8.0 * dq.omega_a**2 * dq.omega_c_tilde**2 / dq.omega_z**4


def write_csv(cm: CouplingMatrix, fileobj: io.TextIOBase) -> None:
    """Emit the pair couplings as CSV with '#'-prefixed metadata lines."""
    fileobj.write("# penning-chain coupling matrix\n")
    fileobj.write(f"# constants: {CONSTANTS_VERSION}\n")
    fileobj.write("# units: couplings in rad/s, distances in m\n")
    fileobj.write(f"# orientation: {cm.orientation.value}\n")
    fileobj.write(f"# anomaly_mode: {cm.anomaly_mode.value}\n")
    fileobj.write("i,j,d_ij,Jz,Jxy,mode\n")
    n = cm.n_sites
    for i in range(n):
        for j in range(i + 1, n):
            fileobj.write(
                f"{i},{j},{cm.distances[i, j]:.12g},{cm.jz[i, j]:.12g},"
                f"{cm.jxy[i, j]:.12g},{cm.anomaly_mode.value}\n"
            )
