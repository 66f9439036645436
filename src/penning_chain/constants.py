"""Physical constants used throughout the package (SI units).

Values are CODATA-2018 at 10 significant digits.  Every computation reads
the one instance ``CODATA2018``.
"""

from dataclasses import dataclass

CONSTANTS_VERSION = "CODATA-2018"

TWO_PI = 6.283185307179586


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants for a single trapped electron.

    ``g`` is the magnitude of the electron g-factor; the spin precession
    frequency is (g/2) times the bare cyclotron frequency.
    """

    e: float = 1.602176634e-19     # elementary charge, C
    m_e: float = 9.109383702e-31   # electron mass, kg
    hbar: float = 1.054571817e-34  # reduced Planck constant, J s
    eps0: float = 8.854187813e-12  # vacuum permittivity, F/m
    g: float = 2.002319304         # |g| of the electron, dimensionless
    k_B: float = 1.380649e-23      # Boltzmann constant, J/K


CODATA2018 = PhysicalConstants()
