"""Naive reference algorithms that the fast path is checked against.

The full D^N tensor of antisymmetric coefficients, which the rest of the
package deliberately avoids, with its explicit partial trace; and the
O(M^2 D) pairwise sum behind the purity identity of the diagonal
decomposition. Every public function takes a FermionState. No analysis
module imports this one. A fixed cap on D^N, DENSE_CAP, guards against
accidental exponential blow-up; _check_cap is the one place that enforces it,
for densify and for the verify command, which sizes its grid up front.

The diagonal of rho_r admits a convex decomposition F_i = sum_k d_k f_ik with
weights d_k = |c_k|^2 and flat occupation distributions f_ik equal to 1/N on
the orbitals of tuple k and zero elsewhere. That structure drives the purity
bound sum_i F_i^2 <= 1/N used by the separability criteria.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial

import numpy as np

from .basis import OrbitalBasisIndex, _instance
from .errors import DimensionError
from .rdm import ReducedDensityMatrix
from .states import FermionState

# Dense entries: a 16 MB complex tensor, which holds the default and CI verify
# grids (6^5 = 7 776 and 12^5 = 248 832 entries).
DENSE_CAP = 10**6


def _check_cap(d: int, n: int) -> None:
    """Raise DimensionError, the size rule's type, when a dense D^N tensor would exceed the cap."""
    # From d > DENSE_CAP, or d >= 2 and 2^n > DENSE_CAP, d^n is past the cap
    # already; such sizes are named as d^n, because the power itself can take
    # seconds and be too long for Python to print.
    if n >= 1 and (d > DENSE_CAP or (d >= 2 and n >= DENSE_CAP.bit_length())):
        size = f"{d}^{n}"
    elif d**n > DENSE_CAP:
        size = str(d**n)
    else:
        return
    raise DimensionError(f"dense tensor needs {size} entries, above the cap {DENSE_CAP}")


def _permutation_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! permutations of range(n) as rows, and their signs (-1)^inversions."""
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    a, b = np.triu_indices(n, 1)
    return perms, np.where(np.sum(perms[:, a] > perms[:, b], axis=1) % 2, -1.0, 1.0)


def densify(state: FermionState) -> np.ndarray:
    """Expand a compact state into the full (D,)*N antisymmetric tensor w.

    At a permutation of a sorted tuple t the entry is sign(permutation) * c_t / N!,
    zero on repeated indices, so the total squared norm of a normalized state is 1/N!.
    """
    d, n = _instance(state, FermionState, "state").d, state.n
    _check_cap(d, n)
    perms, signs = _permutation_signs(n)
    index = np.moveaxis(state.basis.tuples()[:, perms], -1, 0)  # axis p: orbital p of each permuted tuple
    w = np.zeros((d,) * n, dtype=np.complex128)
    w[tuple(index)] = signs * (state.amplitudes[:, None] * (1.0 / factorial(n)))
    return w


def _sparsify(w: np.ndarray) -> FermionState:
    """Inverse of densify on its own output: read N! times the entries at sorted tuples."""
    basis = OrbitalBasisIndex(w.shape[0], w.ndim)
    return FermionState(basis, w[tuple(basis.tuples().T)] * float(factorial(w.ndim)))


def oracle_rdm(state: FermionState) -> ReducedDensityMatrix:
    """Single-particle marginal by explicit partial trace of densify(state) over N-1 indices.

    rho(i, j) is proportional to sum over the remaining indices of
    w(i, rest) * conj(w(j, rest)); the result is normalized to unit trace at
    the end instead of tracking the 1/N prefactor, so this path shares no
    normalization code with the fast combinatorial construction.
    """
    w = densify(state).reshape(state.d, -1)
    g = w @ w.conj().T
    return ReducedDensityMatrix(state.n, g / float(np.trace(g).real))


def diagonal_decomposition(state: FermionState) -> tuple[np.ndarray, np.ndarray]:
    """Weights d_k = |c_k|^2 and the M x D flat occupation distributions f_ik of diag(rho_r)."""
    basis = _instance(state, FermionState, "state").basis
    f = np.zeros((basis.size, basis.d), dtype=np.float64)
    f[np.arange(basis.size)[:, None], basis.tuples()] = 1.0 / basis.n
    return np.abs(state.amplitudes) ** 2, f


def pairwise_identity_gap(state: FermionState) -> float:
    """lhs - rhs of the purity identity sum_i F_i^2 = 1/N - sum_{k<k'} d_k d_k' sum_i (f_ik - f_ik')^2,
    for the weights d and distributions f of diagonal_decomposition(state), with F = d @ f.

    Zero up to rounding; evaluated by direct double summation, independently of any density-matrix code.
    """
    w, f = diagonal_decomposition(state)
    diagonal = w @ f
    lhs = float(diagonal @ diagonal)
    rhs = float(f.max())  # 1/N: rows sum to 1 with entries 0 or 1/N
    # Rows k in blocks of about 2^16 differences f_k - f_k', k' >= start.
    block = max(1, 2**16 // f.size)
    for start in range(0, len(w), block):
        diff = f[start:start + block, None, :] - f[None, start:, :]
        dist = np.triu(np.einsum("kji,kji->kj", diff, diff), 1)  # only k' > k
        rhs -= float(w[start:start + block] @ dist @ w[start:])
    return lhs - rhs
