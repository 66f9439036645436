"""Tools for arrays of single-electron micro-traps coupled by their mutual
Coulomb repulsion in a magnetic-field gradient.

The package computes per-trap mode frequencies and coupling scales, builds the
effective spin-chain Hamiltonians for both array orientations, evolves chain
states exactly, evaluates the thermal error budget of the state-transfer
channel, and validates the effective description against brute-force
truncated-Fock-space simulations.
"""

from .constants import CODATA2018, PhysicalConstants
from .trap_model import (
    AnomalyMode,
    ComplexFrequency,
    DerivedQuantities,
    HierarchyViolation,
    RegimeReport,
    TrapParams,
    coulomb_scale,
    derive_quantities,
    validate_regime,
)
from .couplings import (
    ChainGeometry,
    CouplingMatrix,
    Orientation,
    RegimeError,
    ZeroCoupling,
    coupling_matrix,
    isotropy_ratio,
    pair_coupling_strengths,
    swap_time,
    uniform_chain,
)
from .spin_chain import (
    DimensionOverflow,
    SpinHamiltonian,
    SpinState,
    build_effective_hamiltonian,
    evolve,
    sender_state,
    transfer_fidelity_curve,
    transfer_fidelity_curve_subspace,
)
from .fidelity_model import (
    FidelityReport,
    ThermalOccupations,
    error_canonical,
    error_residual,
    fd,
    occupation_from_temperature,
    total_fidelity,
)
from .microscopic_oracle import (
    FockTruncation,
    build_microscopic,
    extract_effective_jxy,
    extract_effective_jz,
    hsd_fidelity,
    run_validation_suite,
)

__version__ = "0.1.0"
