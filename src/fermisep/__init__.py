"""Separability analysis for pure states of N identical fermions.

States live in a D-dimensional single-particle space and are stored as one
complex amplitude per sorted orbital N-tuple. The package computes the
single-particle reduced density matrix, decides Slater-rank-one separability
through the purity, entropy, and idempotency criteria, and reports the
entanglement measures e_l = 1/N - Tr(rho^2) and e_vn = S[rho] - ln N.
The naive dense references that check this path are reached as
fermisep.oracle.
"""

from .basis import OrbitalBasisIndex
from .errors import FermisepError
from .rdm import ReducedDensityMatrix, compute_rdm
from .separability import (
    EsblResult,
    EsblSample,
    SeparabilityReport,
    analyze,
    esbl_check,
    idempotency_defect,
    project_single_particle,
)
from .spectral import Spectrum, eigenvalues, purity
from .states import (
    FermionState,
    LocalUnitary,
    apply_local_unitary,
    from_coefficients,
    haar_unitary,
    load_state,
    parse_state,
    random_slater,
    random_state,
    save_state,
    slater_from_orbitals,
)

__version__ = "0.1.0"

__all__ = [
    "EsblResult",
    "EsblSample",
    "FermionState",
    "FermisepError",
    "LocalUnitary",
    "OrbitalBasisIndex",
    "ReducedDensityMatrix",
    "SeparabilityReport",
    "Spectrum",
    "analyze",
    "apply_local_unitary",
    "compute_rdm",
    "eigenvalues",
    "esbl_check",
    "from_coefficients",
    "haar_unitary",
    "idempotency_defect",
    "load_state",
    "parse_state",
    "project_single_particle",
    "purity",
    "random_slater",
    "random_state",
    "save_state",
    "slater_from_orbitals",
]
