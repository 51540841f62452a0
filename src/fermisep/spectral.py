"""Spectral functionals of the single-particle reduced density matrix."""

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
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def clamped(self) -> np.ndarray:
        """Eigenvalues with negative noise (at or above -1e-8) set to zero.

        Anything below that hard threshold means the input was not a density
        matrix and raises instead of being papered over.
        """
        v = self.values
        if v.min(initial=0.0) < -HARD_FAIL_TOL:
            raise NotADensityMatrixError(f"eigenvalue {v.min():.3e} below -{HARD_FAIL_TOL:.0e}")
        return np.where(v < 0.0, 0.0, v)

    def entropy(self) -> float:
        """-sum lambda ln lambda over the clamped spectrum, with 0 ln 0 = 0."""
        lam = self.clamped()
        positive = lam[lam > 0.0]
        return float(-(positive @ np.log(positive)))


def eigenvalues(rdm: ReducedDensityMatrix) -> Spectrum:
    """Descending real spectrum of a Hermitian reduced density matrix."""
    defect = rdm.hermiticity_defect()
    if defect > 1e-10:
        raise NotADensityMatrixError(f"matrix deviates from Hermitian by {defect:.3e}")
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
    if p.min(initial=0.0) < -1e-12:
        raise InvalidDistributionError(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > DISTRIBUTION_SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, not 1")
    p = np.where(p < 0.0, 0.0, p)
    positive = p[p > 0.0]
    return float(-(positive @ np.log(positive)))
