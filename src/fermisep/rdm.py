"""Single-particle reduced density matrix and its diagonal decomposition.

The matrix element <i|rho_r|j> is (1/N) <Psi| a_j^dag a_i |Psi>, which makes
rho_r Hermitian, positive semidefinite, and normalized to unit trace. For a
state of Slater rank one the nonzero eigenvalues all equal 1/N; every
eigenvalue is bounded by 1/N in general.

With Phi[i, S'] the amplitude of a_i |Psi> on the (N-1)-tuple S', the
marginal is rho_r = Phi Phi^dag / N. The basis index fills Phi from its one
cached annihilation table, which the single-particle projection in the
separability module shares; then one D x D matrix product runs over the
C(D,N-1) columns of Phi.

The diagonal of rho_r admits a convex decomposition F_i = sum_k d_k f_ik with
weights d_k = |c_k|^2 and flat occupation distributions f_ik equal to 1/N on
the orbitals of tuple k and zero elsewhere. That structure drives the purity
bound sum_i F_i^2 <= 1/N used by the separability criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotADensityMatrixError
from .states import FermionState


@dataclass(frozen=True)
class ReducedDensityMatrix:
    """D x D single-particle marginal of an N-fermion pure state, trace 1, stored as its exact
    Hermitian part; NotADensityMatrixError if not finite or not Hermitian within 1e-10."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0 or not self.n >= 1:
            raise DimensionError(f"expected n >= 1 and a non-empty square matrix, got n={self.n!r}, shape {m.shape}")
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, refused below
            defect = np.max(np.abs(m - m.conj().T), initial=0.0)
        if not defect <= 1e-10:
            raise NotADensityMatrixError(f"matrix is not finite or deviates from Hermitian by {defect:.3e}")
        m = (m + m.conj().T) / 2
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class ConvexDecomposition:
    """Diagonal of rho_r as a convex mixture of flat occupation distributions.

    weights: d_k = |c_k|^2, one per basis tuple, summing to 1.
    distributions: M x D matrix of f_ik, each row 1/N on tuple k's orbitals.
    diagonal: F_i = sum_k d_k f_ik, equal to <i|rho_r|i>.
    """

    weights: np.ndarray
    distributions: np.ndarray
    diagonal: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        f = np.array(self.distributions, dtype=np.float64)
        if f.shape[0] != w.shape[0]:
            raise DimensionError(f"{w.shape[0]} weights but {f.shape[0]} distributions")
        diag = w @ f
        for arr in (w, f, diag):
            arr.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "distributions", f)
        object.__setattr__(self, "diagonal", diag)


def compute_rdm(state: FermionState) -> ReducedDensityMatrix:
    """Single-particle reduced density matrix of a pure N-fermion state.

    rho = Phi Phi^dag / N with Phi from OrbitalBasisIndex.annihilate: O(C(D,N) N)
    work to fill Phi plus one D x D matrix product, never touching the D^N tensor.
    """
    phi = state.basis.annihilate(state.amplitudes)
    return ReducedDensityMatrix(state.n, phi @ phi.conj().T / state.n)


def diagonal_decomposition(state: FermionState) -> ConvexDecomposition:
    """Convex decomposition of diag(rho_r) into flat occupation distributions."""
    basis = state.basis
    weights = np.abs(state.amplitudes) ** 2
    f = np.zeros((basis.size, basis.d), dtype=np.float64)
    f[np.arange(basis.size)[:, None], basis.tuples()] = 1.0 / basis.n
    return ConvexDecomposition(weights, f)
