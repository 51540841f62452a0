"""Pure states of N identical fermions in a D-orbital single-particle space.

A state is stored as one complex amplitude per strictly increasing orbital
N-tuple, ordered by the lexicographic ranking of :class:`~fermisep.basis.OrbitalBasisIndex`.
With respect to the full antisymmetric expansion over ordered index tuples,
the stored amplitude c_t is N! times the tensor coefficient of the sorted
representative, so that the unit-norm condition reads sum |c_t|^2 = 1.

The module covers construction (explicit coefficients, Slater determinants
from orbitals, seeded random ensembles), the single-particle basis change
(exterior power of a unitary), and the JSON state-file format.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import OrbitalBasisIndex, OrbitalTuple, _allocated
from .errors import (
    DegenerateOrbitalsError,
    DimensionError,
    DuplicateEntryError,
    InvalidTupleError,
    NonUnitaryError,
    StateFormatError,
    ZeroStateError,
)

UNITARY_TOL = 1e-10
DEPENDENCE_TOL = 1e-10
# Largest d a state file may give: the D x D marginal is 16 d^2 bytes, 64 MiB here.
MAX_MARGINAL_D = 2048
# Whitespace around at most one separator: what lies between two JSON values.
_JSON_GAP = re.compile(r"[ \t\n\r]*[,:\[{]?[ \t\n\r]*")


def _scaled_norm(c: np.ndarray) -> tuple[float, float]:
    """(scale, norm) with ||c|| = scale * norm, scale an exact power of two near max |c|
    so that huge or tiny finite amplitudes neither overflow nor underflow."""
    peak = float(np.maximum(np.max(np.abs(c.real)), np.max(np.abs(c.imag))))
    if peak == 0.0 or not math.isfinite(peak):
        return 1.0, peak
    scale = math.ldexp(1.0, max(math.frexp(peak)[1] - 1, -1022))  # normal, so 1/scale is finite
    return scale, float(np.linalg.norm(c / scale))


@dataclass(frozen=True)
class FermionState:
    """Normalized pure state of ``basis.n`` fermions in ``basis.d`` orbitals.

    Parameters
    ----------
    basis:
        Index mapping between sorted orbital tuples and amplitude positions.
    amplitudes:
        Complex vector of length ``basis.size``; entry ``basis.rank(t)``
        holds the coefficient of the basis determinant on tuple ``t``.
        Input of any nonzero norm is accepted and normalized silently.
    """

    basis: OrbitalBasisIndex
    amplitudes: np.ndarray

    def __post_init__(self):
        # Copy so the stored vector is never a view of caller-owned memory.
        c = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if c.shape != (self.basis.size,):
            raise DimensionError(
                f"expected {self.basis.size} amplitudes for d={self.d}, n={self.n}, got {c.shape[0]}"
            )
        scale, norm = _scaled_norm(c)
        if norm == 0.0 or not np.isfinite(norm):
            raise ZeroStateError("amplitudes have zero or non-finite norm")
        c = c / scale / norm
        c.flags.writeable = False
        object.__setattr__(self, "amplitudes", c)

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def n(self) -> int:
        return self.basis.n

    def amplitude(self, orbitals: OrbitalTuple) -> complex:
        """Coefficient of the basis determinant on the given sorted tuple."""
        return complex(self.amplitudes[self.basis.rank(orbitals)])


@dataclass(frozen=True)
class LocalUnitary:
    """Single-particle basis rotation, a D x D unitary matrix.

    The same rotation is applied to every particle at once; this is the
    symmetry group under which fermionic entanglement is invariant. Any
    unitary is accepted, the overall determinant phase plays no role in
    the quantities computed downstream.
    """

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionError(f"unitary must be square, got shape {u.shape}")
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if not defect <= UNITARY_TOL:  # NaN fails too
            raise NonUnitaryError(f"U^dag U deviates from identity by {defect:.3e}")
        u.flags.writeable = False
        object.__setattr__(self, "matrix", u)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def from_coefficients(
    d: int, n: int, entries: list[tuple[OrbitalTuple, complex]]
) -> FermionState:
    """Build a state from (sorted tuple, coefficient) pairs.

    Tuples must be valid and distinct; missing tuples get amplitude zero.
    The result is normalized, so the coefficients only need a nonzero norm.
    """
    basis = OrbitalBasisIndex(d, n)
    return FermionState(basis, _listed_amplitudes(basis, entries))


def _listed_amplitudes(basis: OrbitalBasisIndex, entries: list[tuple[OrbitalTuple, complex]]) -> np.ndarray:
    """Amplitude vector holding each listed value at the rank of its tuple and zero elsewhere.

    InvalidTupleError and DuplicateEntryError name the first bad row.
    """
    c = _allocated(basis, lambda: np.zeros(basis.size, dtype=np.complex128))
    r = basis.ranks([t for t, _ in entries])
    first = np.unique(r, return_index=True)[1]
    if len(first) < len(r):
        k = int(np.setdiff1d(np.arange(len(r)), first)[0])
        raise DuplicateEntryError(f"row {k}: tuple {tuple(int(x) for x in entries[k][0])} listed twice", row=k)
    c[r] = [v for _, v in entries]
    return c


def _orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Q of columns = Q R with R upper triangular and its diagonal real positive.

    That is the Q Gram-Schmidt gives. Each column is first scaled by an exact
    power of two, so orbitals of any finite scale neither overflow nor
    underflow. Raises DegenerateOrbitalsError when a column is (numerically)
    in the span of its predecessors.
    """
    m = np.array(columns, dtype=np.complex128)
    scales, norms = np.array([_scaled_norm(col) for col in m.T]).T
    infinite = np.flatnonzero(~np.isfinite(norms))
    if infinite.size:
        raise DegenerateOrbitalsError(f"orbital {infinite[0]} has an infinite or NaN entry")
    q, r = np.linalg.qr(m / scales)
    diag = np.diag(r)
    dependent = np.flatnonzero(np.abs(diag) <= DEPENDENCE_TOL * norms)
    if dependent.size:
        raise DegenerateOrbitalsError(f"orbital {dependent[0]} is linearly dependent on the previous ones")
    return q * (diag / np.abs(diag))


def _minors(columns: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """det(columns[T, :]) for every row T of tuples: the N x N minors of a D x N matrix."""
    return np.linalg.det(columns[tuples, :])


def slater_from_orbitals(orbitals: list[np.ndarray] | np.ndarray) -> FermionState:
    """Antisymmetrized product state of N single-particle orbitals.

    The orbitals (columns of a D x N matrix or a list of D-vectors) are
    orthonormalized first; the state depends only on their span, up to a
    global phase. The amplitude on a sorted tuple t is the determinant of
    the t-rows of the orthonormalized matrix, which by the Cauchy-Binet
    identity already gives a unit-norm vector. States built this way have
    Slater rank one by construction.
    """
    if isinstance(orbitals, (list, tuple)):
        # A sequence of N vectors, each of length D; stack them as columns.
        m = np.asarray(orbitals, dtype=np.complex128).T
    else:
        m = np.asarray(orbitals, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a stack of vectors, got ndim={m.ndim}")
    basis = OrbitalBasisIndex(*m.shape)
    return FermionState(basis, _minors(_orthonormalize(m), basis.tuples()))


def apply_local_unitary(state: FermionState, u: LocalUnitary) -> FermionState:
    """Rotate every orbital of `state` by the same single-particle unitary.

    The amplitude vector transforms by the N-th exterior power of U: the sum over
    tuples S of c_S times the determinant on the orbitals U[:, S], whose amplitudes
    are its minors det(U[T, S]) (``_minors``). Cost O(C(D,N)^2 N^3), memory O(C(D,N) N^2).
    """
    if u.d != state.d:
        raise DimensionError(f"unitary is {u.d}-dimensional, state has d={state.d}")
    tuples = state.basis.tuples()
    out = sum(c * _minors(u.matrix[:, s], tuples) for s, c in zip(tuples, state.amplitudes))
    return FermionState(state.basis, out)


def random_state(d: int, n: int, seed: int | np.random.SeedSequence) -> FermionState:
    """Haar-like random state: i.i.d. complex Gaussian amplitudes, normalized."""
    rng = np.random.default_rng(seed)
    basis = OrbitalBasisIndex(d, n)
    c = _allocated(basis, lambda: rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size))
    return FermionState(basis, c)


def random_slater(d: int, n: int, seed: int | np.random.SeedSequence) -> FermionState:
    """Random Slater-rank-one state from N Gaussian orbitals, orthonormalized."""
    OrbitalBasisIndex(d, n)  # refuses bad dimensions before numpy sees a negative shape
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    return slater_from_orbitals(m)


def haar_unitary(d: int, rng: np.random.Generator) -> LocalUnitary:
    """Haar-distributed d x d unitary via QR with the R-diagonal phase fix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return LocalUnitary(_orthonormalize(z))


def _entry_line(text: str, index: int) -> int:
    """1-based line of the index-th amplitude entry of a state file that json.loads accepts.

    Steps over the top-level object and the amplitudes array one decoded value
    at a time, so nested keys and entries of any type are passed whole.
    """
    decode = json.JSONDecoder().raw_decode

    def gap(pos: int) -> int:
        return _JSON_GAP.match(text, pos).end()

    pos = gap(0)  # past "{"
    while text[pos] != "}":
        key, pos = decode(text, pos)
        pos = gap(pos)  # past ":"
        if key == "amplitudes":
            start = pos  # json.loads keeps the last of repeated keys
        pos = gap(decode(text, pos)[1])  # past ","
    pos = gap(start)  # past "["
    for _ in range(index):
        pos = gap(decode(text, pos)[1])
    return text.count("\n", 0, pos) + 1


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int.
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_entry(item, idx: int) -> tuple[list[int], complex]:
    """Orbitals and coefficient of one amplitude entry of a state file, type-checked."""
    if not isinstance(item, dict) or "orbitals" not in item:
        raise StateFormatError(f"amplitude entry {idx} must be an object with orbitals")
    orbitals = item["orbitals"]
    if not isinstance(orbitals, list) or not all(_is_int(x) for x in orbitals):
        raise StateFormatError(f"orbitals must be an array of integers, got {orbitals!r}")
    re = item.get("re", 0.0)
    im = item.get("im", 0.0)
    if not all(_is_int(x) or isinstance(x, float) for x in (re, im)):
        raise StateFormatError("re and im must be numbers")
    try:
        return orbitals, complex(re, im)
    except OverflowError as exc:
        raise StateFormatError(f"amplitude out of floating-point range: {exc}") from exc


def parse_state(text: str) -> tuple[FermionState, float]:
    """Parse a JSON state document; returns (state, pre-normalization norm).

    Format: {"d": int, "n": int, "amplitudes": [{"orbitals": [ints],
    "re": float, "im": float}, ...]}. Tuples not listed are zero. The
    state is normalized on load; the reported norm is the input's.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise StateFormatError("top-level value must be an object")
    for key in ("d", "n", "amplitudes"):
        if key not in doc:
            raise StateFormatError(f"missing required key {key!r}")
    if not _is_int(doc["d"]) or not _is_int(doc["n"]):
        raise StateFormatError("d and n must be integers")
    if not isinstance(doc["amplitudes"], list) or not doc["amplitudes"]:
        raise StateFormatError("amplitudes must be a non-empty array")
    if doc["d"] > MAX_MARGINAL_D:
        raise StateFormatError(f"d={doc['d']} is more than {MAX_MARGINAL_D}, too large for its d x d marginal")
    entries = []
    for idx, item in enumerate(doc["amplitudes"]):
        try:
            entries.append(_parse_entry(item, idx))
        except StateFormatError as exc:
            # Locating an entry rescans the text, so it is done on failure only.
            raise StateFormatError(str(exc), line=_entry_line(text, idx)) from exc
    try:
        basis = OrbitalBasisIndex(doc["d"], doc["n"])
        c = _listed_amplitudes(basis, entries)
    except (InvalidTupleError, DuplicateEntryError) as exc:
        raise StateFormatError(str(exc), line=_entry_line(text, exc.row)) from exc
    except DimensionError as exc:
        raise StateFormatError(str(exc)) from exc

    scale, norm = _scaled_norm(c)
    if norm == 0.0:
        raise StateFormatError("all amplitudes are zero")
    if not np.isfinite(scale * norm):
        raise StateFormatError("amplitudes and their norm must be finite floating-point numbers")
    return FermionState(basis, c), scale * norm


def load_state(path: str | Path) -> tuple[FermionState, float]:
    """Read a UTF-8 state file; returns (state, pre-normalization norm)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_state(text)


def state_document(state: FermionState) -> dict:
    """JSON-ready document for a state, omitting exactly-zero amplitudes."""
    nonzero = np.flatnonzero(state.amplitudes)
    entries = [
        {"orbitals": orbitals, "re": float(value.real), "im": float(value.imag)}
        for orbitals, value in zip(state.basis.tuples()[nonzero].tolist(), state.amplitudes[nonzero])
    ]
    return {"d": state.d, "n": state.n, "amplitudes": entries}


def save_state(state: FermionState, path: str | Path) -> None:
    """Write a state file holding every amplitude to the last bit (loading normalizes it again)."""
    from .reporting import render_json

    Path(path).write_text(render_json(state_document(state)) + "\n")
