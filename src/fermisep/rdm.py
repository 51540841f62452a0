"""Single-particle reduced density matrix.

The matrix element <i|rho_r|j> is (1/N) <Psi| a_j^dag a_i |Psi>, which makes
rho_r Hermitian, positive semidefinite, and normalized to unit trace. For a
state of Slater rank one the nonzero eigenvalues all equal 1/N; every
eigenvalue is bounded by 1/N in general.

With Phi[i, S'] the amplitude of a_i |Psi> on the (N-1)-tuple S', the
marginal is rho_r = Phi Phi^dag / N. The basis index fills Phi from its one
cached annihilation table, which the single-particle projection in the
separability module shares; then one D x D matrix product runs over the
C(D,N-1) columns of Phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _frozen, _instance
from .errors import DimensionError, NotADensityMatrixError
from .states import FermionState


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """D x D single-particle marginal of an N-fermion pure state, trace 1, stored as its exact
    Hermitian part; NotADensityMatrixError if not finite or not Hermitian within 1e-10."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        m = _frozen(self.entries, np.complex128, (None, None), "expected a square matrix")
        if _frozen(self.n, np.intp, (), "expected an integer n") < 1 or m.shape[0] != m.shape[1] or m.size == 0:
            raise DimensionError(f"expected n >= 1 and a non-empty square matrix, got n={self.n}, shape {m.shape}")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused below
            defect = np.max(np.abs(m - m.conj().T), initial=0.0)
        if not defect <= 1e-10:
            raise NotADensityMatrixError(f"matrix is not finite or deviates from Hermitian by {defect:.3e}")
        object.__setattr__(self, "entries", _frozen((m + m.conj().T) / 2, np.complex128, m.shape, "marginal"))


def compute_rdm(state: FermionState) -> ReducedDensityMatrix:
    """Single-particle reduced density matrix of a pure N-fermion state.

    rho = Phi Phi^dag / N with Phi from OrbitalBasisIndex._annihilate: O(C(D,N) N)
    work to fill Phi plus one D x D matrix product, never touching the D^N tensor.
    """
    phi = _instance(state, FermionState, "state").basis._annihilate(state.amplitudes)
    return ReducedDensityMatrix(state.n, phi @ phi.conj().T / state.n)

