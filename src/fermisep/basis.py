"""Indexing of antisymmetric N-particle basis states.

A basis state of N identical fermions in D orbitals is labelled by a strictly
increasing N-tuple of orbital indices. This module provides the bijection
between those tuples and dense linear indices in [0, C(D, N)), in
lexicographic order: ``ranks`` checks tuples and maps them to indices, row k
of ``tuples()`` is the k-th tuple, and ``annihilate`` applies every a_i.
No other module ranks tuples. ``tuples()`` is built once per (d, n), cached
read-only, and the annihilation ranks are sums of its own rank terms: the
rank of t without its m-th orbital is a prefix of (n-1)-tuple terms and a suffix of t's.

Orbitals are 0-based everywhere, in code and in file formats.
"""

from __future__ import annotations

import reprlib
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import DimensionError, InvalidTupleError

OrbitalTuple = tuple[int, ...]

# Largest number of orbitals: a d x d marginal is 16 d^2 bytes, 64 MiB here, and C(d, n) stays quick to work out.
MAX_D = 2048
# Largest analysis working set of a basis, in bytes (see OrbitalBasisIndex); every rank is then far inside intp.
BYTE_BUDGET = 2**32


@dataclass(frozen=True)
class OrbitalBasisIndex:
    """Bijection between sorted orbital N-tuples and lexicographic ranks.

    d: number of single-particle orbitals (D).
    n: number of fermions (N), with N <= D.
    size: C(D, N), the number of basis states.

    A basis is refused with DimensionError when D > MAX_D, or when _working_set(d, n), the bytes of the
    arrays an analysis holds, passes BYTE_BUDGET.
    """

    d: int
    n: int
    size: int = field(init=False)

    def __post_init__(self):
        for name in ("d", "n"):  # one scalar at a time, read by its dtype alone
            object.__setattr__(self, name, int(_frozen(getattr(self, name), np.intp, (), "d and n must be integers")))
        if self.d < 1 or self.n < 1:
            raise DimensionError(f"d and n must be positive, got d={self.d}, n={self.n}")
        if self.n > self.d:
            raise DimensionError(f"antisymmetric states need n <= d, got n={self.n} > d={self.d}")
        if self.d > MAX_D:
            raise DimensionError(f"d must be at most {MAX_D}, got d={self.d}")
        if _working_set(self.d, self.n) > BYTE_BUDGET:
            raise DimensionError(f"C({self.d}, {self.n}) basis states need more than {BYTE_BUDGET} bytes to analyze")
        object.__setattr__(self, "size", comb(self.d, self.n))

    def ranks(self, tuples) -> np.ndarray:
        """Lexicographic ranks of the rows of an m x n listing of strictly increasing tuples.

        The package's one tuple check: InvalidTupleError names the first row that
        is not n strictly increasing orbitals in [0, d), and ``row`` is its index.
        Combinatorial number system (TAOCP 4A, 7.2.1.3): size - 1 - sum_i C(d-1-t_i, n-i).
        """
        t = _rows(tuples, np.intp, self.n, f"strictly increasing orbitals in [0, {self.d})", InvalidTupleError,
                  lambda t: np.all(t[:, 1:] > t[:, :-1], axis=1) & (t[:, 0] >= 0) & (t[:, -1] < self.d))
        return self.size - 1 - _rank_terms(self.d, self.n, t).sum(axis=1)

    def tuples(self) -> np.ndarray:
        """All basis tuples as a size x n array, rows in lexicographic (rank) order; cached, so read-only."""
        return _tables(self.d, self.n)[0]

    def annihilate(self, amplitudes: np.ndarray) -> np.ndarray:
        """D x C(D, N-1) matrix Phi with Phi[i, S'] = <S'| a_i |c> for amplitudes c on this basis.

        a_i deletes orbital i, at position m of a tuple, with sign (-1)^m;
        columns follow the lexicographic order of the (N-1)-tuples S'.
        """
        t, small = _annihilation_table(self.d, self.n)
        phi = np.zeros((self.d, comb(self.d, self.n - 1)), dtype=np.complex128)
        phi[t, small] = (-1.0) ** np.arange(self.n) * amplitudes[:, None]
        return phi


def _frozen(value, dtype: type, shape: tuple, what: str) -> np.ndarray:
    """Read-only copy of value as dtype and shape (None: any length). DimensionError "{what}, got ..." if ragged, of
    str, object or bool dtype, not intp integers for intp, complex for a real one, or a list or tuple with a bool."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged
        a = np.asarray(None)
    kinds = {np.intp: "iu", np.float64: "iuf", np.complex128: "iufc"}[dtype]
    if a.dtype.kind not in kinds or a.ndim != len(shape) or any(k not in (None, m) for k, m in zip(shape, a.shape)):
        raise DimensionError(f"{what}, got " + (_shown(value) if a.ndim == 0 else f"{a.dtype} of shape {a.shape}"))
    if isinstance(value, (list, tuple)) and _holds_bool(value):
        raise DimensionError(f"{what}, got {_shown(value)}")
    if dtype is np.intp and np.any(a > np.iinfo(np.intp).max):  # an unsigned int in [2^63, 2^64) would wrap around
        raise DimensionError(f"{what}, got {_shown(value)}, past the range of {np.dtype(np.intp)}")
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _holds_bool(value: list | tuple) -> bool:
    """Whether a bool sits anywhere in value, a list or tuple that numpy takes as one array of numbers."""
    return not {bool, np.bool_}.isdisjoint(map(type, np.array(value, dtype=object).flat))


class _Shown(reprlib.Repr):
    """A caller's value echoed in a message: its repr, built from a bounded part of it and cut to 80 characters. An
    int past 240 bits is named by its bit length, as reprlib prints every int in full and Python refuses one of more
    than 4300 digits. Limits are set on the instance, as Repr(**limits) needs Python 3.12."""

    def __init__(self):
        super().__init__()
        self.maxstring = self.maxother = 80
        self.maxtuple = self.maxlist = 40  # past 80 characters however short each entry

    def repr_int(self, x: int, level: int) -> str:
        return repr(x) if x.bit_length() <= 240 else f"<int of {x.bit_length()} bits>"

    def __call__(self, value) -> str:
        return self.repr(value)[:80]


_shown = _Shown()


def _rows(listing, dtype: type, width: int, what: str, error: type, valid=lambda a: np.ones(len(a), bool)):
    """listing, a list, tuple or array of m rows (an iterator would be used up by a first look), as one read-only m x
    width array of dtype through _frozen whose rows pass valid, a row mask; else error(row=k) for the first refused row,
    found by halving [0, m), or DimensionError if no row is refused alone; echoed values are shortened by _shown."""

    def converted(rows) -> np.ndarray | None:  # None if ragged, a bool, of another width or dtype, or out of range
        with suppress(DimensionError):
            return _frozen(rows, dtype, (None, width), what) if len(rows) else np.zeros((0, width), dtype)

    def refused(lo: int, hi: int) -> bool:  # some row in [lo, hi) is refused: a slice of a, else those rows converted
        return (r := converted(listing[lo:hi]) if a is None else a[lo:hi]) is None or not valid(r).all()

    if isinstance(listing, (list, tuple)) or isinstance(listing, np.ndarray) and listing.ndim:
        if (a := converted(listing)) is not None and valid(a).all():
            return a
        lo, hi = 0, len(listing)
        while hi - lo > 1:  # [lo, hi) holds the first refused row, if any row is refused alone
            lo, hi = (lo, mid) if refused(lo, mid := (lo + hi) // 2) else (mid, hi)
        if refused(lo, hi):
            shown = tuple(np.array(listing[lo], dtype=object, ndmin=1).tolist())
            raise error(f"row {lo}: {_shown(shown)} is not {width} {what}", row=lo)
    raise DimensionError(f"expected rows of {width} {what} in one sequence of {np.dtype(dtype)}, got {_shown(listing)}")


def _seeded(seed, sequences: bool = True) -> int | np.random.SeedSequence | np.random.Generator:
    """seed, a non-negative integer or, if sequences, a SeedSequence or a Generator (spawning or drawing changes
    one), for np.random.default_rng, which returns a Generator unchanged; else DimensionError."""
    integer = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0
    if not (integer or sequences and isinstance(seed, (np.random.SeedSequence, np.random.Generator))):
        kinds = ", a SeedSequence or a Generator" if sequences else ""
        raise DimensionError(f"seed must be a non-negative integer{kinds}, got {_shown(seed)}")
    return seed


def _instance(value, kind: type, name: str):
    """value, the argument called name, if it is a kind, a package object; else DimensionError naming kind."""
    if not isinstance(value, kind):
        raise DimensionError(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")
    return value


def _rank_terms(d: int, k: int, t: np.ndarray) -> np.ndarray:
    """C(d-1-x, k-i) at each entry x = t[r, i]; left 0 below x = i, which no valid tuple reaches, so each fits."""
    terms = [[comb(d - 1 - x, k - i) if x >= i else 0 for x in range(d)] for i in range(t.shape[1])]
    return np.array(terms, dtype=np.intp).reshape(-1, d)[np.arange(t.shape[1]), t]


def _working_set(d: int, n: int) -> int:
    """Bytes an analysis of the (d, n) basis holds: the amplitudes c (16 bytes each), tuples() and the annihilation
    table (8 N bytes each per state), and Phi with its conjugate copy (32 D bytes per (N-1)-tuple)."""
    return 16 * comb(d, n) * (n + 1) + 32 * d * comb(d, n - 1)


_held = 0  # bytes in _tables, each annihilation table counted from its basis's build: it is the tuples' size


@lru_cache(maxsize=None)
def _tables(d: int, n: int) -> list:
    """[tuples(), the annihilation table once _annihilation_table builds it, else None] of the (d, n) basis; a hit
    is one C lookup. A miss first empties the cache if its tables and this basis's working set pass BYTE_BUDGET."""
    global _held
    if _held + _working_set(d, n) > BYTE_BUDGET:
        _tables.cache_clear()
        _held = 0
    t = np.fromiter(chain.from_iterable(combinations(range(d), n)), np.intp, comb(d, n) * n).reshape(-1, n)
    t.flags.writeable = False
    _held += 2 * t.nbytes
    return [t, None]


def _annihilation_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (d, n) basis's own tuples() array and small[k, m], the rank of tuple k without its m-th orbital.

    small[:, m] = C(d, n-1) - 1 - sum_{i<m} C(d-1-t_i, n-1-i) - sum_{i>m} C(d-1-t_i, n-i), a prefix of
    (n-1)-tuple rank terms and a suffix of the tuple's own; all 0, the empty tuple's rank, with one particle.
    No (orbital, small) pair repeats, since the tuple is the small tuple plus that orbital.
    """
    t, small = tables = _tables(d, n)
    if small is None:
        own = _rank_terms(d, n, t)
        full = comb(d, n - 1) - 1 - own.sum(axis=1, keepdims=True)  # less every own term
        own[:, 1:] -= _rank_terms(d, n - 1, t[:, :-1])  # its cumsum at m: own terms i <= m less (n-1)-terms i < m
        small = tables[1] = full + own.cumsum(axis=1, out=own)
    return t, small
