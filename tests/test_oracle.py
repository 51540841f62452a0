"""Dense-tensor cross-check: expansion, antisymmetry, partial trace, caps."""

from itertools import combinations, permutations
from math import factorial

import numpy as np
import pytest

from conftest import enumerated_tuples
from fermisep import oracle
from fermisep.errors import DimensionError
from fermisep.oracle import _check_cap, _sparsify, densify, oracle_rdm
from fermisep.states import from_coefficients, random_state


def antisymmetry_defect(w: np.ndarray) -> float:
    """Max violation of w -> -w under adjacent index swaps, checked exhaustively."""
    return max((float(np.max(np.abs(w + np.swapaxes(w, p, p + 1)))) for p in range(w.ndim - 1)), default=0.0)


def norm_defect(w: np.ndarray) -> float:
    """Deviation of the total squared norm from 1/N!."""
    return abs(float(np.vdot(w, w).real) - 1.0 / factorial(w.ndim))


def test_two_mode_determinant_expansion():
    state = from_coefficients(2, 2, [((0, 1), 1.0)])
    w = densify(state)
    assert w[0, 1] == pytest.approx(0.5)
    assert w[1, 0] == pytest.approx(-0.5)
    assert w[0, 0] == w[1, 1] == 0.0
    assert np.vdot(w, w).real == pytest.approx(0.5)  # 1/2!


@pytest.mark.parametrize("d, n", [(4, 2), (5, 3), (4, 4)])
def test_dense_tensor_is_antisymmetric(d, n):
    w = densify(random_state(d, n, 31))
    assert w.shape == (d,) * n
    assert antisymmetry_defect(w) <= 1e-15
    assert norm_defect(w) <= 1e-12


@pytest.mark.parametrize("d, n", [(3, 1), (4, 2), (5, 3), (6, 4)])
def test_densify_matches_the_signed_permutation_sum(d, n):
    """Every entry, one permutation of one sorted tuple at a time: sign * c_t / N!."""
    state = random_state(d, n, 5)
    expected = np.zeros((d,) * n, dtype=np.complex128)
    for t, c in zip(enumerated_tuples(d, n), state.amplitudes):
        for perm in permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
            expected[tuple(t[p] for p in perm)] = (-1) ** inversions * (c * (1.0 / factorial(n)))
    assert np.array_equal(densify(state), expected)


@pytest.mark.parametrize("d, n", [(3, 2), (6, 3), (5, 4)])
def test_densify_sparsify_round_trip(d, n):
    state = random_state(d, n, 12)
    back = _sparsify(densify(state))
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-14


def test_oracle_marginal_examples():
    det = from_coefficients(2, 2, [((0, 1), 1.0)])
    assert np.allclose(oracle_rdm(det).entries, np.diag([0.5, 0.5]), atol=1e-14)

    pair = from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)])
    assert np.allclose(
        oracle_rdm(pair).entries, np.diag([0.25, 0.25, 0.25, 0.25]), atol=1e-14
    )


def test_dense_tensor_refuses_a_zero_marginal():
    # oracle_rdm takes a state, never a tensor, and a state is never zero.
    with pytest.raises(DimensionError, match="^state must be of type FermionState, got ndarray$"):
        oracle_rdm(np.zeros((2, 2)))


def sparsify(tensor):
    """The one way the program hands _sparsify a tensor: the densify round trip of verify."""
    return _sparsify(densify(tensor))


@pytest.mark.parametrize("call", [sparsify, oracle_rdm])
@pytest.mark.parametrize(
    "tensor",
    [np.ones((4, 3)), np.ones((3, 4)), np.ones((2, 2, 3)), np.ones((0, 0)), np.ones(()), [[1, 0], [0]], "ab"],
    ids=["4x3", "3x4", "2x2x3", "0x0", "scalar", "ragged", "string"],
)
def test_oracle_refuses_a_tensor_whose_sides_differ_or_are_empty(call, tensor):
    # No tensor reaches the oracle: its entry points take a FermionState, and
    # _sparsify reads only what densify made of one.
    with pytest.raises(DimensionError, match="^state must be of type FermionState, got (ndarray|list|str)$"):
        call(tensor)


def test_cap_blocks_large_instances(monkeypatch):
    monkeypatch.setattr(oracle, "DENSE_CAP", 100)
    with pytest.raises(DimensionError, match="above the cap 100$"):
        densify(random_state(5, 3, 0))  # 5^3 = 125 > 100
    monkeypatch.setattr(oracle, "DENSE_CAP", 125)
    densify(random_state(5, 3, 0))


@pytest.mark.parametrize("d, n", [(6, 10**7), (10**4000, 2), (2, 20)])
def test_cap_names_sizes_past_it_without_the_power(d, n):
    # 6^(10^7) takes seconds to compute and 10^8000 is past Python's limit on
    # printed integer digits; 2^20 is the first power of two past 10^6.
    with pytest.raises(DimensionError, match=rf"needs {d}\^{n} entries, above the cap 1000000"):
        _check_cap(d, n)
    _check_cap(d, 0)


def test_cap_defaults_and_validation():
    assert oracle.DENSE_CAP == 10**6
    _check_cap(10, 6)  # exactly at the cap
    with pytest.raises(DimensionError, match="needs 1030301 entries, above the cap 1000000$"):
        _check_cap(101, 3)
