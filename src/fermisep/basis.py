"""Indexing of antisymmetric N-particle basis states.

A basis state of N identical fermions in D orbitals is labelled by a strictly
increasing N-tuple of orbital indices. This module provides the bijection
between those tuples and dense linear indices in [0, C(D, N)), in
lexicographic order: ``ranks`` checks tuples and maps them to indices, row k
of ``tuples()`` is the k-th tuple, and ``annihilate`` applies every a_i.
No other module ranks tuples.

Orbitals are 0-based everywhere, in code and in file formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import DimensionError, InvalidTupleError

OrbitalTuple = tuple[int, ...]


@dataclass(frozen=True)
class OrbitalBasisIndex:
    """Bijection between sorted orbital N-tuples and lexicographic ranks.

    d: number of single-particle orbitals (D).
    n: number of fermions (N), with N <= D.
    size: C(D, N), the number of basis states.
    """

    d: int
    n: int
    size: int = field(init=False)

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise DimensionError(f"d and n must be positive, got d={self.d}, n={self.n}")
        if self.n > self.d:
            raise DimensionError(f"antisymmetric states need n <= d, got n={self.n} > d={self.d}")
        object.__setattr__(self, "size", comb(self.d, self.n))

    def rank(self, orbitals: OrbitalTuple) -> int:
        """Lexicographic rank of a strictly increasing orbital tuple: a one-row ranks."""
        return int(self.ranks([orbitals])[0])

    def ranks(self, tuples) -> np.ndarray:
        """Lexicographic ranks of the rows of an m x n listing of strictly increasing tuples.

        The package's one tuple check: InvalidTupleError names the first row that
        is not n strictly increasing orbitals in [0, d), and ``row`` is its index.
        Combinatorial number system (TAOCP 4A, 7.2.1.3): size - 1 - sum_i C(d-1-t_i, n-i).
        """
        try:
            t = np.asarray(tuples, dtype=np.intp).reshape(len(tuples), self.n)
            valid = np.all(t[:, 1:] > t[:, :-1]) and np.all(t[:, 0] >= 0) and np.all(t[:, -1] < self.d)
        except (ValueError, OverflowError):  # ragged, another row length, or past the integer range
            valid = False
        if not valid:  # find the first bad row, one by one, on failure only
            for k, row in enumerate(tuples):
                t = [int(x) for x in np.atleast_1d(row)]
                if len(t) != self.n or any(a >= b for a, b in zip([-1, *t], [*t, self.d])):
                    message = f"row {k}: {tuple(t)} is not {self.n} strictly increasing orbitals in [0, {self.d})"
                    raise InvalidTupleError(message, row=k)
        # Entry i of a valid tuple is at least i. Below that the binomial is
        # unreachable and left 0, so every entry fits whenever size does.
        terms = [[comb(self.d - 1 - x, self.n - i) if x >= i else 0 for x in range(self.d)] for i in range(self.n)]
        return self.size - 1 - np.array(terms, dtype=np.intp)[np.arange(self.n), t].sum(axis=1)

    def tuples(self) -> np.ndarray:
        """All basis tuples as a size x n array, rows in lexicographic (rank) order."""
        flat = chain.from_iterable(combinations(range(self.d), self.n))
        return _allocated(self, lambda: np.fromiter(flat, np.intp, self.size * self.n).reshape(self.size, self.n))

    def annihilate(self, amplitudes: np.ndarray) -> np.ndarray:
        """D x C(D, N-1) matrix Phi with Phi[i, S'] = <S'| a_i |c> for amplitudes c on this basis.

        a_i deletes orbital i, at position m of a tuple, with sign (-1)^m;
        columns follow the lexicographic order of the (N-1)-tuples S'.
        """
        t, small = _annihilation_table(self.d, self.n)
        phi = np.zeros((self.d, comb(self.d, self.n - 1)), dtype=np.complex128)
        phi[t, small] = (-1.0) ** np.arange(self.n) * amplitudes[:, None]
        return phi


def _allocated(basis: OrbitalBasisIndex, make):
    """make(), a basis-sized array, with numpy's refusal to allocate it as DimensionError."""
    try:
        return make()
    except (ValueError, MemoryError) as exc:
        raise DimensionError(f"C({basis.d}, {basis.n}) basis states are too many to allocate") from exc


@lru_cache(maxsize=64)
def _annihilation_table(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tuples of the (d, n) basis and small[k, m], the rank of tuple k without its m-th orbital.

    No (orbital, small) pair repeats, since the tuple is the small tuple plus that orbital.
    """
    t = OrbitalBasisIndex(d, n).tuples()
    # With one particle, every a_i lands on the empty tuple, of rank 0.
    lower = OrbitalBasisIndex(d, n - 1).ranks if n > 1 else (lambda rows: np.zeros(len(rows), dtype=np.intp))
    return t, np.stack([lower(np.delete(t, m, axis=1)) for m in range(n)], axis=1)
