"""Shared test helpers: reference implementations and ensemble utilities."""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# State files that are valid JSON but mistyped or too large to hold; each
# must be refused with StateFormatError rather than coerced or crashing.
MALFORMED_STATES = {
    "bool-d": '{"d": true, "n": 1, "amplitudes": [{"orbitals": [0], "re": 1.0}]}',
    "string-orbitals": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": "01", "re": 1.0}]}',
    "float-orbitals": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [2.7, 3.2], "re": 1.0}]}',
    "bool-re": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": true}]}',
    "huge-int-re": '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": 1' + "0" * 400 + "}]}",
    "oversized": '{"d": 200, "n": 100, "amplitudes": [{"orbitals": [0, 1], "re": 1.0}]}',
}


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


def enumerated_tuples(d: int, n: int) -> list[tuple[int, ...]]:
    """Brute-force reference ordering: itertools yields sorted n-subsets
    of range(d) in lexicographic order, independently of the package."""
    return list(combinations(range(d), n))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    return unitary_group.rvs(d, random_state=rng)
