"""Reference operating points for cross-checking couplings and fidelities.

Six benchmark rows (two trap configurations, several spacings and gradients)
with quoted coupling strengths and magnetron occupations.  The quoted
coupling column resolves to units of 1e3 rad/s: read that way the model
reproduces every row within a factor of two, while reading it as cyclic
kilohertz puts most rows off by more than a factor of five.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import CODATA2018, TWO_PI
from .couplings import pair_coupling_strengths
from .fidelity_model import FidelityReport, ThermalOccupations, total_fidelity
from .trap_model import AnomalyMode, DerivedQuantities, TrapParams, derive_quantities

BATH_TEMPERATURE_K = 0.080
TARGET_FIDELITY = {"A": 0.99, "B": 0.999}


@dataclass(frozen=True)
class BenchmarkRow:
    """One benchmark operating point.

    ``jxy_printed`` is the quoted coupling in the resolved unit of
    1e3 rad/s; frequencies are cyclic (Hz), spacing in meters, gradient in
    tesla per meter.
    """

    case: str
    spacing: float
    f_z: float
    gradient: float
    l_bar: float
    jxy_printed: float
    f_c: float

    @property
    def jxy_printed_rad_s(self) -> float:
        """Quoted coupling under the resolved reading (1e3 rad/s)."""
        return 1.0e3 * self.jxy_printed


REFERENCE_ROWS: tuple[BenchmarkRow, ...] = (
    BenchmarkRow("A", 50e-6, 490e6, 350.0, 0.01, 0.01, 8e9),
    BenchmarkRow("A", 30e-6, 490e6, 600.0, 0.10, 0.14, 8e9),
    BenchmarkRow("A", 10e-6, 490e6, 1800.0, 2.00, 35.0, 8e9),
    BenchmarkRow("A", 3e-6, 1200e6, 1800.0, 50.0, 1300.0, 8e9),
    BenchmarkRow("B", 10e-6, 730e6, 1100.0, 0.15, 2.5, 11e9),
    BenchmarkRow("B", 3e-6, 4500e6, 1100.0, 1.00, 100.0, 11e9),
)


def row_quantities(
    row: BenchmarkRow,
    anomaly_mode: AnomalyMode = AnomalyMode.APPROX_1E3,
) -> DerivedQuantities:
    """Derived frequencies reproducing the row's cyclotron and axial frequencies.

    Run non-strict: the tightest row packs the axial frequency within a
    factor of three of the cyclotron frequency, which the hierarchy check
    would reject outright.
    """
    params = TrapParams(
        B0=TWO_PI * row.f_c * CODATA2018.m_e / CODATA2018.e,
        b=row.gradient,
        omega_z_in=TWO_PI * row.f_z,
        anomaly_mode=anomaly_mode,
    )
    return derive_quantities(params, strict=False)


def row_couplings(
    row: BenchmarkRow,
    anomaly_mode: AnomalyMode = AnomalyMode.APPROX_1E3,
) -> tuple[float, float]:
    """(Ising, exchange) coupling strengths in rad/s at the row's spacing."""
    dq = row_quantities(row, anomaly_mode)
    return pair_coupling_strengths(dq, row.spacing)


def coupling_ratio(
    row: BenchmarkRow,
    anomaly_mode: AnomalyMode = AnomalyMode.APPROX_1E3,
    *,
    cyclic_reading: bool = False,
) -> float:
    """Model exchange coupling over the quoted value, under either reading."""
    _, jxy = row_couplings(row, anomaly_mode)
    # misread as cyclic kilohertz, the quoted value is 2*pi times larger
    quoted = TWO_PI * 1.0e3 * row.jxy_printed if cyclic_reading else row.jxy_printed_rad_s
    return jxy / quoted


def row_occupations(
    row: BenchmarkRow,
    anomaly_mode: AnomalyMode = AnomalyMode.APPROX_1E3,
) -> ThermalOccupations:
    """Axial and cyclotron occupations at the bath temperature, quoted magnetron."""
    dq = row_quantities(row, anomaly_mode)
    return ThermalOccupations.from_temperature(dq, BATH_TEMPERATURE_K, l_bar=row.l_bar)


def row_error_budget(
    row: BenchmarkRow,
    anomaly_mode: AnomalyMode = AnomalyMode.EXACT_G,
) -> FidelityReport:
    """Full two-electron fidelity budget for a row at the bath temperature."""
    dq = row_quantities(row, anomaly_mode)
    occ = row_occupations(row, anomaly_mode)
    _, jxy = pair_coupling_strengths(dq, row.spacing)
    return total_fidelity(dq, occ, jxy, n_sites=2)
