"""Spectral functionals of the single-particle reduced density matrix.

A Spectrum refuses NaN, infinite and below -1e-8 eigenvalues when it is built,
so the entropy and every other reader of its values see only checked ones.
The von Neumann entropy of a marginal is eigenvalues(rho).entropy(): at least
ln N for an N-fermion pure state, with equality exactly on Slater-rank-one
states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import _frozen, _instance
from .errors import NotADensityMatrixError
from .rdm import ReducedDensityMatrix

HARD_FAIL_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a reduced density matrix, sorted in descending order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(_frozen(self.values, np.float64, (None,), "expected a vector of real eigenvalues"))[::-1]
        if not (np.isfinite(v).all() and -v.min(initial=0.0) <= HARD_FAIL_TOL):
            span = f"{v[-1]:.3e} to {v[0]:.3e}"  # a NaN sorts first, so it shows
            raise NotADensityMatrixError(f"eigenvalues must be finite and at least -{HARD_FAIL_TOL:.0e}, got {span}")
        object.__setattr__(self, "values", _frozen(v, np.float64, v.shape, "eigenvalues"))

    def entropy(self) -> float:
        """-sum lambda ln lambda in nats over the positive eigenvalues, so 0 ln 0 = 0 and negative noise drops out."""
        positive = self.values[self.values > 0.0]
        return float(-(positive @ np.log(positive)))


def eigenvalues(rdm: ReducedDensityMatrix) -> Spectrum:
    """Descending real spectrum of the reduced density matrix, Hermitian by construction."""
    return Spectrum(np.linalg.eigvalsh(_instance(rdm, ReducedDensityMatrix, "rdm").entries))


def purity(rdm: ReducedDensityMatrix) -> float:
    """Tr(rho^2), computed as the squared Frobenius norm of a Hermitian rho.

    At most 1/N for the marginal of an N-fermion pure state, with equality
    exactly on Slater-rank-one states.
    """
    return float(np.sum(np.abs(_instance(rdm, ReducedDensityMatrix, "rdm").entries) ** 2))

