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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import basis as basis_module
from .basis import OrbitalBasisIndex, OrbitalTuple, _frozen, _instance, _rows, _seeded, _shown
from .errors import (
    DegenerateOrbitalsError,
    DimensionError,
    DuplicateEntryError,
    NonUnitaryError,
    StateFormatError,
    ZeroStateError,
    _RowError,
)

UNITARY_TOL = 1e-10
DEPENDENCE_TOL = 1e-10
# Bytes of N x N matrices _minors gathers at a time.
_MINOR_BYTES = 2**26
# Bound on load_state's peak memory over the file's size: 5.4 for save_state's layout, 7.4 minified, up to 22.7 for
# entries that list only orbitals.
_READ_EXPANSION = 24
# Bytes load_state may need per JSON object or array on top of that; an entry {} takes about 152.
_CONTAINER_BYTES = 160
# Entries save_state formats at a time, about a megabyte of text.
_WRITE_ROWS = 4096


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
        Complex vector of length ``basis.size``; entry ``basis.ranks([t])[0]``
        holds the coefficient of the basis determinant on tuple ``t``.
        Input of any nonzero norm is accepted and normalized silently.
    """

    basis: OrbitalBasisIndex
    amplitudes: np.ndarray

    def __post_init__(self):
        _instance(self.basis, OrbitalBasisIndex, "basis")
        what = f"expected {self.basis.size} amplitudes for d={self.d}, n={self.n}"
        c = _frozen(self.amplitudes, np.complex128, (self.basis.size,), what)
        scale, norm = _scaled_norm(c)
        if norm == 0.0 or not np.isfinite(norm):
            raise ZeroStateError("amplitudes have zero or non-finite norm")
        object.__setattr__(self, "amplitudes", _frozen(c / scale / norm, np.complex128, c.shape, what))

    @property
    def d(self) -> int:
        return self.basis.d

    @property
    def n(self) -> int:
        return self.basis.n

    def amplitude(self, orbitals: OrbitalTuple) -> complex:
        """Coefficient of the basis determinant on the given sorted tuple."""
        return complex(self.amplitudes[self.basis.ranks([orbitals])[0]])


@dataclass(frozen=True)
class LocalUnitary:
    """Single-particle basis rotation, a D x D unitary matrix.

    The same rotation is applied to every particle at once; this is the
    symmetry group under which fermionic entanglement is invariant. Any
    unitary is accepted, the overall determinant phase plays no role in
    the quantities computed downstream. The matrix is stored as a read-only
    copy, so the caller's array stays its own.
    """

    matrix: np.ndarray

    def __post_init__(self):
        u = _frozen(self.matrix, np.complex128, (None, None), "unitary must be square and non-empty")
        if u.shape[0] != u.shape[1] or u.size == 0:
            raise DimensionError(f"unitary must be square and non-empty, got shape {u.shape}")
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if not defect <= UNITARY_TOL:  # NaN fails too
            raise NonUnitaryError(f"U^dag U deviates from identity by {defect:.3e}")
        object.__setattr__(self, "matrix", u)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]


def from_coefficients(d: int, n: int, entries: list[tuple[OrbitalTuple, complex]]) -> FermionState:
    """Build a state from (sorted tuple, coefficient) pairs.

    Tuples must be valid and distinct; missing tuples get amplitude zero.
    The result is normalized, so the coefficients only need a nonzero norm.
    """
    basis = OrbitalBasisIndex(d, n)
    if not isinstance(entries, (list, tuple)):  # an iterator would be used up by the pair check
        raise DimensionError(f"entries must be a list of (tuple, coefficient) pairs, got {_shown(entries)}")
    unpaired = (k for k, e in enumerate(entries) if not (isinstance(e, (tuple, list)) and len(e) == 2))
    if (k := next(unpaired, None)) is not None:
        raise DimensionError(f"row {k}: expected a (tuple, coefficient) pair, got {_shown(entries[k])}")
    return FermionState(basis, _listed_amplitudes(basis, [t for t, _ in entries], [v for _, v in entries]))


def _listed_amplitudes(basis: OrbitalBasisIndex, tuples, values) -> np.ndarray:
    """values[k] at the rank of tuples[k] and zero elsewhere; InvalidTupleError and DuplicateEntryError name a row."""
    c = np.zeros(basis.size, dtype=np.complex128)
    r = basis.ranks(tuples)
    first = np.unique(r, return_index=True)[1]
    if len(first) < len(r):
        k = int(np.setdiff1d(np.arange(len(r)), first)[0])
        raise DuplicateEntryError(f"row {k}: tuple {tuple(int(x) for x in tuples[k])} listed twice", row=k)
    c[r] = _frozen(values, np.complex128, (len(r),), "coefficients must be numbers")
    return c


def _orthonormalize(columns: np.ndarray) -> np.ndarray:
    """Q of columns = Q R with R upper triangular and its diagonal real positive.

    That is the Q Gram-Schmidt gives. Each column is first scaled by an exact
    power of two, so orbitals of any finite scale neither overflow nor
    underflow. Raises DegenerateOrbitalsError when a column is (numerically)
    in the span of its predecessors.
    """
    scales, norms = np.array([_scaled_norm(col) for col in columns.T]).T
    infinite = np.flatnonzero(~np.isfinite(norms))
    if infinite.size:
        raise DegenerateOrbitalsError(f"orbital {infinite[0]} has an infinite or NaN entry")
    q, r = np.linalg.qr(columns / scales)
    diag = np.diag(r)
    dependent = np.flatnonzero(np.abs(diag) <= DEPENDENCE_TOL * norms)
    if dependent.size:
        raise DegenerateOrbitalsError(f"orbital {dependent[0]} is linearly dependent on the previous ones")
    return q * (diag / np.abs(diag))


def _minors(columns: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """det(columns[T, :]) for every row T of tuples, the N x N minors of a D x N matrix, _MINOR_BYTES at a time."""
    step = max(1, _MINOR_BYTES // (16 * columns.shape[1] ** 2))
    return np.concatenate([np.linalg.det(columns[tuples[k : k + step], :]) for k in range(0, len(tuples), step)])


def slater_from_orbitals(orbitals: list[np.ndarray] | np.ndarray) -> FermionState:
    """Antisymmetrized product state of N single-particle orbitals.

    The orbitals (columns of a D x N matrix or a list of D-vectors) are
    orthonormalized first; the state depends only on their span, up to a
    global phase. The amplitude on a sorted tuple t is the determinant of
    the t-rows of the orthonormalized matrix, which by the Cauchy-Binet
    identity already gives a unit-norm vector. States built this way have
    Slater rank one by construction.
    """
    m = _frozen(orbitals, np.complex128, (None, None), "expected a stack of vectors")
    m = m.T if isinstance(orbitals, (list, tuple)) else m  # a list holds N vectors of length D: stack them as columns
    basis = OrbitalBasisIndex(*m.shape)
    return FermionState(basis, _minors(_orthonormalize(m), basis.tuples()))


def apply_local_unitary(state: FermionState, u: LocalUnitary) -> FermionState:
    """Rotate every orbital of `state` by the same single-particle unitary.

    The amplitude vector transforms by the N-th exterior power of U: the sum over
    tuples S of c_S times the determinant on the orbitals U[:, S], whose amplitudes
    are its minors det(U[T, S]) (``_minors``). Cost O(C(D,N)^2 N^3), memory O(C(D,N) N) and one block of minors.
    """
    if _instance(u, LocalUnitary, "u").d != _instance(state, FermionState, "state").d:
        raise DimensionError(f"unitary is {u.d}-dimensional, state has d={state.d}")
    tuples = state.basis.tuples()
    out = sum(c * _minors(u.matrix[:, s], tuples) for s, c in zip(tuples, state.amplitudes))
    return FermionState(state.basis, out)


def random_state(d: int, n: int, seed: int | np.random.SeedSequence | np.random.Generator) -> FermionState:
    """Haar-like random state: i.i.d. complex Gaussian amplitudes, normalized."""
    rng = np.random.default_rng(_seeded(seed))
    basis = OrbitalBasisIndex(d, n)
    return FermionState(basis, rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size))


def random_slater(d: int, n: int, seed: int | np.random.SeedSequence | np.random.Generator) -> FermionState:
    """Random Slater-rank-one state from N Gaussian orbitals, orthonormalized."""
    OrbitalBasisIndex(d, n)  # refuses bad dimensions and sizes before numpy sees a shape
    rng = np.random.default_rng(_seeded(seed))
    m = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    return slater_from_orbitals(m)


def haar_unitary(d: int, seed: int | np.random.SeedSequence | np.random.Generator) -> LocalUnitary:
    """Haar-distributed d x d unitary via QR with the R-diagonal phase fix."""
    d = OrbitalBasisIndex(d, 1).d
    rng = np.random.default_rng(_seeded(seed))
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return LocalUnitary(_orthonormalize(z))


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
    except (RecursionError, ValueError) as exc:  # too deep for the decoder, or an integer over Python's digit limit
        raise StateFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StateFormatError("top-level value must be an object")
    for key in ("d", "n", "amplitudes"):
        if key not in doc:
            raise StateFormatError(f"missing required key {key!r}")
    entries = doc["amplitudes"]
    try:
        basis = OrbitalBasisIndex(doc["d"], doc["n"])
        if not isinstance(entries, list) or not entries:
            raise StateFormatError("amplitudes must be a non-empty array")
        bad = (k for k, e in enumerate(entries) if not (isinstance(e, dict) and "orbitals" in e))
        if (k := next(bad, None)) is not None:
            raise StateFormatError(f"row {k}: {_shown(entries[k])} is not an object with orbitals")
        pairs = _rows([(e.get("re", 0.0), e.get("im", 0.0)) for e in entries], np.float64, 2, "real numbers", _RowError)
        c = _listed_amplitudes(basis, [e["orbitals"] for e in entries], pairs.view(np.complex128)[:, 0])
    except (_RowError, DimensionError) as exc:
        raise StateFormatError(str(exc)) from exc

    scale, norm = _scaled_norm(c)
    if norm == 0.0:
        raise StateFormatError("all amplitudes are zero")
    if not np.isfinite(scale * norm):
        raise StateFormatError("amplitudes and their norm must be finite floating-point numbers")
    return FermionState(basis, c), scale * norm


def _file_limit(containers: int = 0) -> int:
    """The largest state file load_state reads, in bytes, if it holds that many JSON objects and arrays:
    basis.BYTE_BUDGET, read now, less _CONTAINER_BYTES per container, over _READ_EXPANSION."""
    return (basis_module.BYTE_BUDGET - _CONTAINER_BYTES * containers) // _READ_EXPANSION


def load_state(path: str | Path) -> tuple[FermionState, float]:
    """Read a UTF-8 state file; returns (state, pre-normalization norm).

    A file past _file_limit() is refused before a byte of it is read, and one past the limit for the "{" and "["
    it holds, counted a mebibyte at a time (in strings too), before it is decoded.
    """
    path = Path(path)
    size = path.stat().st_size
    if size > _file_limit():
        raise StateFormatError(f"a state file of {size} bytes needs more than {basis_module.BYTE_BUDGET} bytes to read")
    with path.open("rb") as handle:
        containers = sum(block.count(b"{") + block.count(b"[") for block in iter(lambda: handle.read(2**20), b""))
    if size > _file_limit(containers):
        raise StateFormatError(
            f"a state file of {size} bytes and {containers} objects and arrays needs more than "
            f"{basis_module.BYTE_BUDGET} bytes to read"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StateFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_state(text)


def save_state(state: FermionState, path: str | Path) -> None:
    """Write a state file holding every amplitude to the last bit (loading normalizes it again).

    The layout is parse_state's format, indented as reporting.render_json lays out a document, with
    17-digit floats; exactly-zero amplitudes are left out. Rows are written _WRITE_ROWS at a time, so
    the text in memory stays a fixed size however large the state. A file that grows past
    _file_limit() for its containers (two per entry and the outer two), which load_state would refuse, is
    removed and refused with StateFormatError.
    """
    from .reporting import format_float

    nonzero = np.flatnonzero(_instance(state, FermionState, "state").amplitudes)
    tuples = state.basis.tuples()
    path, limit = Path(path), _file_limit(2 * len(nonzero) + 2)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        # The text is ASCII, so the characters written are the file's bytes.
        written = handle.write(f'{{\n  "d": {state.d},\n  "n": {state.n},\n  "amplitudes": [\n')
        for start in range(0, len(nonzero), _WRITE_ROWS):
            if written > limit:
                break
            rows = nonzero[start : start + _WRITE_ROWS]
            entries = (
                f'    {{\n      "orbitals": [{", ".join(map(str, t))}],\n'
                f'      "re": {format_float(c.real)},\n      "im": {format_float(c.imag)}\n    }}'
                for t, c in zip(tuples[rows].tolist(), state.amplitudes[rows].tolist())
            )
            written += handle.write(",\n" * (start > 0) + ",\n".join(entries))
        written += handle.write("\n  ]\n}\n")
    if written > limit:
        path.unlink()
        raise StateFormatError(f"a state file for d={state.d}, n={state.n} passes {limit} bytes, more than load_state reads")
