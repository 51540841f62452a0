"""Spectral functionals of the single-particle reduced density matrix.

A Spectrum refuses NaN, infinite and below -1e-8 eigenvalues when it is built,
so the entropy and every other reader of its values see only checked ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDistributionError, NotADensityMatrixError
from .rdm import ReducedDensityMatrix

HARD_FAIL_TOL = 1e-8
DISTRIBUTION_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a reduced density matrix, sorted in descending order."""

    values: np.ndarray

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64))[::-1].copy()
        if not (np.isfinite(v).all() and -v.min(initial=0.0) <= HARD_FAIL_TOL):
            span = f"{v[-1]:.3e} to {v[0]:.3e}"  # a NaN sorts first, so it shows
            raise NotADensityMatrixError(f"eigenvalues must be finite and at least -{HARD_FAIL_TOL:.0e}, got {span}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def entropy(self) -> float:
        """-sum lambda ln lambda over the positive eigenvalues, with 0 ln 0 = 0."""
        return _entropy(self.values)


def _entropy(p: np.ndarray) -> float:
    """-sum p ln p over the positive entries of p, so 0 ln 0 = 0 and negative noise drops out."""
    positive = p[p > 0.0]
    return float(-(positive @ np.log(positive)))


def eigenvalues(rdm: ReducedDensityMatrix) -> Spectrum:
    """Descending real spectrum of the reduced density matrix, Hermitian by construction."""
    return Spectrum(np.linalg.eigvalsh(rdm.entries))


def purity(rdm: ReducedDensityMatrix) -> float:
    """Tr(rho^2), computed as the squared Frobenius norm of a Hermitian rho.

    At most 1/N for the marginal of an N-fermion pure state, with equality
    exactly on Slater-rank-one states.
    """
    return float(np.sum(np.abs(rdm.entries) ** 2))


def von_neumann_entropy(rdm: ReducedDensityMatrix) -> float:
    """-Tr(rho ln rho) in nats, with the 0 ln 0 = 0 convention.

    At least ln N for the marginal of an N-fermion pure state, with equality
    exactly on Slater-rank-one states.
    """
    return eigenvalues(rdm).entropy()


def shannon_entropy(distribution: np.ndarray) -> float:
    """Shannon entropy in nats of a probability vector.

    Entries may carry rounding noise down to -1e-12 (clamped to zero); the
    sum must be 1 within 1e-9.
    """
    p = np.asarray(distribution, dtype=np.float64)
    if not -p.min(initial=0.0) <= 1e-12:  # NaN fails too
        raise InvalidDistributionError(f"probability {p.min():.3e} is NaN or negative")
    total = float(p.sum())
    if not abs(total - 1.0) <= DISTRIBUTION_SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    return _entropy(p)
