"""Indexing of antisymmetric N-particle basis states.

A basis state of N identical fermions in D orbitals is labelled by a strictly
increasing N-tuple of orbital indices. This module provides the bijection
between those tuples and dense linear indices in [0, C(D, N)), in
lexicographic order: ``ranks`` maps tuples to indices and row k of
``tuples()`` is the k-th tuple. No other module ranks tuples.

Orbitals are 0-based everywhere, in code and in file formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    def validate(self, orbitals: OrbitalTuple) -> OrbitalTuple:
        """Check that `orbitals` is a strictly increasing n-tuple in [0, d)."""
        t = tuple(int(x) for x in orbitals)
        if len(t) != self.n:
            raise InvalidTupleError(f"expected {self.n} orbitals, got {len(t)}: {t}")
        if t and not (0 <= t[0] and t[-1] < self.d):
            raise InvalidTupleError(f"orbitals out of range [0, {self.d}): {t}")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise InvalidTupleError(f"orbitals must be strictly increasing: {t}")
        return t

    def rank(self, orbitals: OrbitalTuple) -> int:
        """Lexicographic rank of a strictly increasing orbital tuple: a one-row ranks."""
        return int(self.ranks(np.array([self.validate(orbitals)]))[0])

    def ranks(self, tuples: np.ndarray) -> np.ndarray:
        """Lexicographic ranks of the rows of an m x n array of strictly increasing tuples.

        Combinatorial number system (TAOCP 4A, 7.2.1.3): size - 1 - sum_i C(d-1-t_i, n-i).
        """
        t = np.asarray(tuples, dtype=np.intp)
        if t.ndim != 2 or t.shape[1] != self.n or (t.size and (t.min() < 0 or t.max() >= self.d)):
            raise InvalidTupleError(f"expected rows of {self.n} orbitals in [0, {self.d}), got {t.shape}")
        if np.any(t[:, 1:] <= t[:, :-1]):
            raise InvalidTupleError("orbitals must be strictly increasing in every row")
        # Entry i of a valid tuple is at least i. Below that the binomial is
        # unreachable and left 0, so every entry fits whenever size does.
        terms = [[comb(self.d - 1 - x, self.n - i) if x >= i else 0 for x in range(self.d)] for i in range(self.n)]
        return self.size - 1 - np.array(terms, dtype=np.intp)[np.arange(self.n), t].sum(axis=1)

    def tuples(self) -> np.ndarray:
        """All basis tuples as a size x n array, rows in lexicographic (rank) order."""
        flat = chain.from_iterable(combinations(range(self.d), self.n))
        return np.fromiter(flat, dtype=np.intp, count=self.size * self.n).reshape(self.size, self.n)
