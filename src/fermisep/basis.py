"""Indexing of antisymmetric N-particle basis states.

A basis state of N identical fermions in D orbitals is labelled by a strictly
increasing N-tuple of orbital indices. This module provides the bijection
between those tuples and dense linear indices in [0, C(D, N)), in
lexicographic order, together with the sign bookkeeping for annihilation on
an ordered tuple.

Orbitals are 0-based everywhere, in code and in file formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import BoundsError, DimensionError, InvalidTupleError

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
        """Lexicographic rank of a strictly increasing orbital tuple.

        rank((0, 1, ..., n-1)) = 0 and rank of the last tuple is size - 1.
        """
        t = self.validate(orbitals)
        r = 0
        prev = 0
        for i, x in enumerate(t):
            for v in range(prev, x):
                r += comb(self.d - 1 - v, self.n - 1 - i)
            prev = x + 1
        return r

    def unrank(self, index: int) -> OrbitalTuple:
        """Inverse of rank: the index-th tuple in lexicographic order."""
        if not 0 <= index < self.size:
            raise BoundsError(f"index {index} outside [0, {self.size})")
        out = []
        r = index
        x = 0
        for i in range(self.n):
            c = comb(self.d - 1 - x, self.n - 1 - i)
            while c <= r:
                r -= c
                x += 1
                c = comb(self.d - 1 - x, self.n - 1 - i)
            out.append(x)
            x += 1
        return tuple(out)

    def annihilate(self, orbitals: OrbitalTuple, orbital: int) -> tuple[OrbitalTuple, int] | None:
        """Remove `orbital` from an occupied tuple, with the fermionic sign.

        Acting with a_i on the ordered product of creation operators for
        `orbitals` gives (-1)**m times the tuple with the m-th entry removed
        (m counts occupied orbitals preceding i). Returns None when the
        orbital is not occupied, since the result is the zero vector.
        """
        # Any length is accepted, since annihilation walks down through the
        # particle-number sectors; only ordering and range are enforced.
        t = tuple(int(x) for x in orbitals)
        if t and not (0 <= t[0] and t[-1] < self.d):
            raise InvalidTupleError(f"orbitals out of range [0, {self.d}): {t}")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise InvalidTupleError(f"orbitals must be strictly increasing: {t}")
        if not 0 <= orbital < self.d:
            raise InvalidTupleError(f"orbital {orbital} outside [0, {self.d})")
        if orbital not in t:
            return None
        m = t.index(orbital)
        return t[:m] + t[m + 1:], -1 if m % 2 else 1

    def tuples(self) -> list[OrbitalTuple]:
        """All basis tuples in lexicographic (rank) order."""
        return list(combinations(range(self.d), self.n))
