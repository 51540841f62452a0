"""Separability verdicts and entanglement measures for N-fermion pure states.

A pure state of N identical fermions is separable when it is a single Slater
determinant (Slater rank one). Three equivalent spectral criteria on the
single-particle reduced density matrix rho_r decide this:

  purity       Tr(rho_r^2) = 1/N        (otherwise strictly smaller)
  entropy      S[rho_r]    = ln N       (otherwise strictly larger)
  idempotency  rho_r^2     = rho_r / N  (all nonzero eigenvalues equal 1/N)

Entropy and idempotency read the one spectrum of rho_r (idempotency as the
operator norm of rho_r^2 - rho_r/N, the largest |lambda (1/N - lambda)|), so
an analysis makes one eigendecomposition and never squares rho_r. Purity is
the squared Frobenius norm of rho_r's entries (spectral.purity), which equals
the sum of lambda^2 only in exact arithmetic.

The corresponding entanglement measures are e_l = 1/N - Tr(rho_r^2) and
e_vn = S[rho_r] - ln N, both nonnegative and zero exactly on separable
states. For two fermions in four orbitals, 4 * e_l coincides with the
squared concurrence 4 |c01 c23 - c02 c13 + c03 c12|^2 (cross-checked in the
test suite as a documented comparison, not a gating criterion).

A projection cross-check is included as a randomized test: contracting the
state with a single-particle vector yields an (N-1)-fermion state that must
again be separable or zero whenever the original state is separable, and the
chain of such projections ends in a two-fermion state whose Slater rank is
read off the eigenvalue pairing of its reduced density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import OrbitalBasisIndex, _frozen, _instance, _seeded, _shown
from .errors import DimensionError, UnsupportedError
from .rdm import ReducedDensityMatrix, compute_rdm
from .spectral import Spectrum, eigenvalues, purity
from .states import FermionState

DEFAULT_TOLERANCE = 1e-9
RANK_EIGENVALUE_TOL = 1e-10
NULL_PROJECTION_TOL = 1e-10


@dataclass(frozen=True)
class SeparabilityReport:
    """All separability diagnostics of one marginal, with its own N, at one tolerance.

    The purity verdict is the primary one; a state is reported separable
    exactly when verdict_purity holds. The entropy verdict uses a tolerance
    scaled by N; it corroborates rather than decides. The idempotency
    verdict checks the operator norm of rho^2 - rho/N, the largest
    |lambda_k (1/N - lambda_k)|. The three verdicts threshold different
    quantities, but they nest term by term: every eigenvalue lies in
    [0, 1/N], so the defect is the largest of the nonnegative terms
    lambda_k (1/N - lambda_k), whose sum is e_l, and Renyi-2 <= von Neumann
    gives e_vn >= -ln(1 - N e_l) >= N e_l. Hence entropy-separable
    implies purity-separable implies idempotency-separable; near the
    tolerance they can only disagree in that direction, the entropy verdict
    being the strictest. The spectrum the entropy was computed from is kept
    for display; it is not part of to_dict().
    """

    purity: float
    entropy: float
    e_l: float
    e_vn: float
    idempotency_defect: float
    verdict_purity: bool
    verdict_entropy: bool
    verdict_idempotency: bool
    tolerance: float
    spectrum: Spectrum = field(repr=False, compare=False)

    @property
    def separable(self) -> bool:
        return self.verdict_purity

    def to_dict(self) -> dict:
        return {
            "purity": self.purity,
            "entropy_nats": self.entropy,
            "e_l": self.e_l,
            "e_vn": self.e_vn,
            "idempotency_defect": self.idempotency_defect,
            "tolerance": self.tolerance,
            "verdicts": {
                "purity": self.verdict_purity,
                "entropy": self.verdict_entropy,
                "idempotency": self.verdict_idempotency,
                "separable": self.separable,
            },
        }


def idempotency_defect(spectrum: Spectrum, n: int) -> float:
    """Operator norm of rho^2 - rho/N from rho's spectrum; zero exactly when every nonzero eigenvalue is 1/N."""
    lam = _instance(spectrum, Spectrum, "spectrum").values
    return float(np.max(np.abs(lam * (1.0 / n - lam))))


def check_tolerance(tolerance: float) -> float:
    """The verdict tolerance as a float; DimensionError unless it is a real number, positive and finite."""
    checked = float(_frozen(tolerance, np.float64, (), "tolerance must be positive and finite"))
    if not 0.0 < checked < math.inf:
        raise DimensionError(f"tolerance must be positive and finite, got {_shown(tolerance)}")
    return checked


def analyze(
    state: FermionState,
    tolerance: float = DEFAULT_TOLERANCE,
    *,
    rdm: ReducedDensityMatrix | None = None,
) -> SeparabilityReport:
    """Full separability analysis of a pure N-fermion state.

    Computes rho_r once and derives purity, entropy, the measures e_l and
    e_vn, the idempotency defect, and the three verdicts at the given
    tolerance (entropy at tolerance * N, see SeparabilityReport). A caller
    that already has the reduced density matrix may pass it to skip the
    recomputation; it must be a marginal of the state's own n and d x d
    entries, else DimensionError. The tolerance must be positive and finite.
    """
    tolerance = check_tolerance(tolerance)
    _instance(state, FermionState, "state")
    rho = compute_rdm(state) if rdm is None else _instance(rdm, ReducedDensityMatrix, "rdm")
    if rho.n != state.n or rho.entries.shape != (state.d, state.d):
        raise DimensionError(f"rdm is of n={rho.n} in {len(rho.entries)} orbitals, state has d={state.d}, n={state.n}")
    n = rho.n
    p = purity(rho)
    spectrum = eigenvalues(rho)
    s = spectrum.entropy()
    defect = idempotency_defect(spectrum, n)
    ln_n = math.log(n)
    return SeparabilityReport(
        purity=p,
        entropy=s,
        e_l=1.0 / n - p,
        e_vn=s - ln_n,
        idempotency_defect=defect,
        verdict_purity=abs(p - 1.0 / n) <= tolerance,
        verdict_entropy=abs(s - ln_n) <= tolerance * n,
        verdict_idempotency=defect <= tolerance,
        tolerance=tolerance,
        spectrum=spectrum,
    )


def _rank_and_residual(state: FermionState) -> tuple[int, float]:
    """Slater rank of a two-fermion state and its spectral weight beyond the leading pair.

    The eigenvalues of rho_r come in degenerate pairs for N = 2, one pair
    per determinant in the canonical form of the state; the rank is half
    the number of eigenvalues above 1e-10.
    """
    if state.n != 2:
        raise UnsupportedError(f"defined for two fermions only, got n={state.n}")
    lam = eigenvalues(compute_rdm(state)).values
    return int(np.sum(lam > RANK_EIGENVALUE_TOL)) // 2, max(0.0, float(lam[2:].sum()))


def project_single_particle(
    state: FermionState, direction: np.ndarray
) -> tuple[FermionState | None, float]:
    """Contract one particle out of the state along a single-particle vector.

    Applies sum_i conj(a_i) a_i to the state, producing an (N-1)-fermion
    state. Returns (state, norm) where norm is the length of the raw
    projection; when the projection is numerically null (norm <= 1e-10)
    the state is None. A separable state projects onto a separable or null
    state for every direction.
    """
    if _instance(state, FermionState, "state").n < 2:
        raise UnsupportedError("projection needs at least two particles")
    a = _frozen(direction, np.complex128, (state.d,), f"direction must be a vector of length {state.d}")
    infinite = np.flatnonzero(~np.isfinite(a))
    if infinite.size:
        raise DimensionError(f"direction entry {infinite[0]} is infinite or NaN")
    b = np.conj(a) @ state.basis.annihilate(state.amplitudes)
    norm = float(np.linalg.norm(b))
    if norm <= NULL_PROJECTION_TOL:
        return None, norm
    return FermionState(OrbitalBasisIndex(state.d, state.n - 1), b), norm


@dataclass(frozen=True)
class EsblSample:
    """One random projection chain: norms per level, bottom-rank diagnostics."""

    projection_norms: tuple[float, ...]
    residual: float
    null: bool
    separable: bool


@dataclass(frozen=True)
class EsblResult:
    """Verdict of the randomized projection check with per-sample metadata."""

    separable: bool
    samples: tuple[EsblSample, ...]

    @property
    def max_residual(self) -> float:
        return max((s.residual for s in self.samples), default=0.0)


def esbl_check(state: FermionState, samples: int = 16, seed: int = 0) -> EsblResult:
    """Randomized projection test for Slater rank one.

    Draws `samples` independent chains of Haar-random single-particle
    directions, contracting the state down to two fermions and reading the
    Slater rank there. Separable states pass every chain (projections of a
    single determinant are determinants or zero); entangled states fail a
    random chain with probability one, so a false "entangled" verdict never
    occurs and a false "separable" verdict would need measure-zero sampling
    degeneracy. For n = 2 no sampling is involved, the rank is read directly;
    n = 1 is refused.
    """
    if _frozen(samples, np.intp, (), "samples must be an integer") < 1:
        raise DimensionError(f"need at least one sample, got {samples}")
    if _instance(state, FermionState, "state").n < 2:
        raise UnsupportedError(f"projection check needs n >= 2, got n={state.n}")
    entropy = _seeded(seed, sequences=False)
    chains = []
    for k in range(samples if state.n > 2 else 1):
        rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(k,)))  # SeedSequence(seed).spawn(...)[k]
        current = state
        norms: list[float] = []
        while current is not None and current.n > 2:  # a null projection ends the chain
            a = rng.standard_normal(state.d) + 1j * rng.standard_normal(state.d)
            current, norm = project_single_particle(current, a / np.linalg.norm(a))
            norms.append(norm)
        rank, residual = (1, 0.0) if current is None else _rank_and_residual(current)
        chains.append(EsblSample(tuple(norms), residual, current is None, rank == 1))
    return EsblResult(all(s.separable for s in chains), tuple(chains))
