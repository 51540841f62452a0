"""Shared test helpers: reference implementations and ensemble utilities."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import fermisep

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# State files that are valid JSON but mistyped, nested deeper than the JSON
# decoder recurses, too large to hold or to analyze, or with a norm past the
# float range; each must be refused with StateFormatError rather than coerced
# or crashing.
MALFORMED_STATES = {
    "bool-d": '{"d": true, "n": 1, "amplitudes": [{"orbitals": [0], "re": 1.0}]}',
    "string-orbitals": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": "01", "re": 1.0}]}',
    "float-orbitals": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [2.7, 3.2], "re": 1.0}]}',
    "bool-re": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": true}]}',
    "bool-re-beside-float": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": true, "im": 1.0}]}',
    "bool-orbital": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, true], "re": 1.0}]}',
    "huge-int-re": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": 1' + "0" * 400 + "}]}",
    "oversized": '{"d": 200, "n": 100, "amplitudes": [{"orbitals": [0, 1], "re": 1.0}]}',
    "huge-d": '{"d": 1000000, "n": 1, "amplitudes": [{"orbitals": [0], "re": 1.0}]}',
    "huge-d-and-n": '{"d": 1000000000, "n": 500000000, "amplitudes": [{"orbitals": [0]}]}',
    # An unsigned 64-bit d, which a cast to intp would wrap to -2^63.
    "d-past-int64": '{"d": 9223372036854775808, "n": 1, "amplitudes": [{"orbitals": [0], "re": 1}]}',
    # One entry, but C(30, 9) = 14.3M states need about 7.5 GiB to analyze.
    "past-byte-budget": '{"d": 30, "n": 9, "amplitudes": [{"orbitals": [0, 1, 2, 3, 4, 5, 6, 7, 8], "re": 1.0}]}',
    "deep-nesting": '{"d": 4, "n": 2, "amplitudes": ' + "[" * 100000 + "]" * 100000 + "}",
    "overflowing-norm": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": 1.5e308}, {"orbitals": [2, 3], "re": 1.5e308}]}',
}


def _state():
    return fermisep.random_state(4, 2, 0)


def _basis():
    return fermisep.OrbitalBasisIndex(4, 2)


# Public calls with an argument of the wrong kind or shape: ragged, strings,
# bools, floats where a count belongs, complex where a real number belongs, or
# a 2-D array where a vector belongs. Each must raise a FermisepError, with no
# warning, rather than coerce the argument or end in a bare numpy error.
MALFORMED_ARGUMENTS = {
    "unitary-string": lambda: fermisep.LocalUnitary("abcd"),
    "unitary-ragged": lambda: fermisep.LocalUnitary([[1, 0], [0]]),
    "coefficients-float-tuple": lambda: fermisep.from_coefficients(4, 2, [((0, 1.9), 1)]),
    "coefficients-not-a-pair": lambda: fermisep.from_coefficients(4, 2, [((0, 1),)]),
    "coefficients-string-value": lambda: fermisep.from_coefficients(4, 2, [((0, 1), "1")]),
    "coefficients-bool-in-tuple": lambda: fermisep.from_coefficients(4, 2, [((0, True), 1)]),
    "coefficients-generator": lambda: fermisep.from_coefficients(4, 2, (e for e in [((0, 1), 1.0)])),
    "ranks-bool": lambda: _basis().ranks([(False, True)]),
    "ranks-bool-beside-int": lambda: _basis().ranks([(0, True)]),
    "ranks-generator": lambda: _basis().ranks(t for t in [(0, 1)]),
    "ranks-nan": lambda: _basis().ranks([(np.nan, 1)]),
    "basis-huge-d-and-n": lambda: fermisep.OrbitalBasisIndex(10**9, 5 * 10**8),
    "tolerance-bool": lambda: fermisep.analyze(_state(), tolerance=True),
    "tolerance-complex": lambda: fermisep.analyze(_state(), tolerance=1e-9 + 0j),
    "amplitudes-2d": lambda: fermisep.FermionState(_basis(), np.ones((2, 3))),
    "amplitudes-strings": lambda: fermisep.FermionState(_basis(), ["1"] * 6),
    "amplitudes-text": lambda: fermisep.FermionState(_basis(), "abcdef"),
    "amplitudes-ragged": lambda: fermisep.FermionState(_basis(), [1, [2, 3], 4, 5, 6, 7]),
    "amplitudes-bool-beside-float": lambda: fermisep.FermionState(_basis(), [True, 0, 0, 0, 0, 1.0]),
    "spectrum-2d": lambda: fermisep.Spectrum(np.eye(2)),
    "spectrum-strings": lambda: fermisep.Spectrum(["0.5", "0.5"]),
    "spectrum-complex": lambda: fermisep.Spectrum(np.array([0.5 + 0.1j, 0.5])),
    "marginal-float-n": lambda: fermisep.ReducedDensityMatrix(2.5, np.eye(2) / 2),
    "marginal-string-n": lambda: fermisep.ReducedDensityMatrix("2", np.eye(2) / 2),
    "marginal-string": lambda: fermisep.ReducedDensityMatrix(2, "ab"),
    "marginal-ragged": lambda: fermisep.ReducedDensityMatrix(2, [[0.5, 0], [0.5]]),
    "samples-bool": lambda: fermisep.esbl_check(_state(), samples=True),
    "samples-float": lambda: fermisep.esbl_check(_state(), samples=2.5),
    "samples-string": lambda: fermisep.esbl_check(_state(), samples="3"),
    "orbitals-string": lambda: fermisep.slater_from_orbitals("ab"),
    "orbitals-ragged": lambda: fermisep.slater_from_orbitals([[1, 0, 0], [0, 1]]),
    "direction-string": lambda: fermisep.project_single_particle(_state(), "abcd"),
    "direction-2d": lambda: fermisep.project_single_particle(_state(), np.eye(2)),
    "direction-ragged": lambda: fermisep.project_single_particle(_state(), [1, [0, 0], 0, 0]),
    "haar-float-d": lambda: fermisep.haar_unitary(4.0, np.random.default_rng(0)),
    "haar-bool-d": lambda: fermisep.haar_unitary(True, np.random.default_rng(0)),
    "seed-negative": lambda: fermisep.random_state(4, 2, -1),
    "seed-bool": lambda: fermisep.random_state(4, 2, True),
    "seed-float": lambda: fermisep.random_slater(4, 2, 1.5),
    "seed-string": lambda: fermisep.random_slater(4, 2, "a"),
    "esbl-seed-negative": lambda: fermisep.esbl_check(_state(), seed=-1),
    "esbl-seed-float": lambda: fermisep.esbl_check(_state(), seed=1.5),
    "esbl-seed-string": lambda: fermisep.esbl_check(_state(), seed="a"),
    "esbl-seed-bool": lambda: fermisep.esbl_check(_state(), seed=True),
    "esbl-seed-sequence": lambda: fermisep.esbl_check(_state(), seed=np.random.SeedSequence(0)),
    # Ints past Python's 4300-digit printing limit, echoed in the message by their bit length.
    "tolerance-huge-int": lambda: fermisep.analyze(_state(), tolerance=10**5000),
    "ranks-huge-int-in-row": lambda: _basis().ranks([[0, 10**5000]]),
    "ranks-huge-int": lambda: _basis().ranks(10**5000),
    "coefficients-huge-int": lambda: fermisep.from_coefficients(4, 2, 10**5000),
    "coefficients-huge-int-entry": lambda: fermisep.from_coefficients(4, 2, [((0, 1), 1.0), 10**5000]),
    "seed-huge-negative-int": lambda: fermisep.random_state(4, 2, -(10**5000)),
    "samples-huge-int": lambda: fermisep.esbl_check(_state(), samples=10**5000),
    "basis-huge-int-d": lambda: fermisep.OrbitalBasisIndex(10**5000, 2),
    # Unsigned integers in [2^63, 2^64), which a cast to intp would wrap around.
    "basis-uint64-n": lambda: fermisep.OrbitalBasisIndex(4, np.uint64(2**64 - 1)),
    "haar-uint64-d": lambda: fermisep.haar_unitary(np.uint64(2**63 + 1), np.random.default_rng(0)),
    "samples-past-int64": lambda: fermisep.esbl_check(_state(), samples=2**64 - 1),
}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def run_python(*argv) -> subprocess.CompletedProcess:
    """`python ARGV` in a fresh interpreter that imports this fermisep, so a traceback shows on stderr."""
    src = str(Path(fermisep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True, env=env, timeout=60)


def enumerated_tuples(d: int, n: int) -> list[tuple[int, ...]]:
    """Brute-force reference ordering: itertools yields sorted n-subsets
    of range(d) in lexicographic order, independently of the package."""
    return list(combinations(range(d), n))


def reference_rank(d: int, n: int, t: tuple[int, ...]) -> int:
    """Lexicographic rank by counting, entry by entry, the tuples that agree
    up to position i and have a smaller entry there."""
    r = 0
    prev = 0
    for i, x in enumerate(t):
        for v in range(prev, x):
            r += comb(d - 1 - v, n - 1 - i)
        prev = x + 1
    return r


def reference_annihilate(t: tuple[int, ...], orbital: int) -> tuple[tuple[int, ...], int] | None:
    """a_orbital on the ordered determinant of sorted tuple t: the tuple with
    that orbital removed and the sign (-1)^m, m the number of occupied orbitals
    before it; None when the orbital is empty and the result is zero."""
    if orbital not in t:
        return None
    m = t.index(orbital)
    return t[:m] + t[m + 1:], -1 if m % 2 else 1


def reference_exterior_power(u: np.ndarray, d: int, n: int) -> np.ndarray:
    """The n-th exterior power of u by its definition: entry [T, S] is the minor
    det u[T, S], rows and columns in the itertools order of the n-subsets."""
    tuples = enumerated_tuples(d, n)
    return np.array([[np.linalg.det(u[np.ix_(t, s)]) for s in tuples] for t in tuples])


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return unitary_group.rvs(d, random_state=rng)
