"""Reduced density matrix construction, and the diagonal convex decomposition of fermisep.oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerated_tuples, reference_annihilate
from fermisep.basis import OrbitalBasisIndex, _annihilation_table
from fermisep.oracle import diagonal_decomposition, oracle_rdm, pairwise_identity_gap
from fermisep.errors import DimensionError, NotADensityMatrixError
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.separability import project_single_particle
from fermisep.states import from_coefficients, load_state, random_slater, random_state


def test_full_shell_is_maximally_mixed():
    state = from_coefficients(2, 2, [((0, 1), 1.0)])
    rho = compute_rdm(state)
    assert np.allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-14)


def test_localized_pair_occupations(fixtures_dir):
    # One particle in orbital 0, one in orbital 3, single determinant:
    # the marginal puts weight 1/2 on exactly those two orbitals.
    state, _ = load_state(fixtures_dir / "localized_pair.json")
    rho = compute_rdm(state)
    assert np.allclose(rho.entries, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_matches_dense_partial_trace(n, d):
    if n > d:
        pytest.skip("needs n <= d")
    for seed in range(5):
        state = random_state(d, n, seed)
        fast = compute_rdm(state).entries
        dense = oracle_rdm(state).entries
        assert np.max(np.abs(fast - dense)) <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_marginal_invariants(seed):
    state = random_state(6, 3, seed)
    rho = compute_rdm(state)
    assert np.array_equal(rho.entries, rho.entries.conj().T)
    assert abs(float(np.trace(rho.entries).real) - 1.0) <= 1e-12
    lam = np.linalg.eigvalsh(rho.entries)
    assert lam.min() >= -1e-10
    assert lam.max() <= 1 / 3 + 1e-10


def test_marginal_is_stored_as_its_exact_hermitian_part():
    m = np.array([[0.5, 0.25 + 0.5j], [0.25 - 0.5j + 4e-11j, 0.5 + 3e-11j]])
    rho = ReducedDensityMatrix(2, m)
    assert np.array_equal(rho.entries, (m + m.conj().T) / 2)
    assert np.array_equal(rho.entries, rho.entries.conj().T)
    far = m.copy()
    far[1, 0] += 2e-10
    for bad in (far, np.diag([0.5, np.nan]), np.diag([0.5, np.inf]), np.array([[0.5, np.inf], [np.inf, 0.5]])):
        with pytest.raises(NotADensityMatrixError):
            ReducedDensityMatrix(2, bad)


@pytest.mark.parametrize("n, m", [(2, np.ones((2, 3))), (2, np.ones(4)), (2, np.zeros((0, 0))), (0, np.eye(2) / 2)])
def test_marginal_refuses_a_bad_shape_or_particle_number(n, m):
    with pytest.raises(DimensionError):
        ReducedDensityMatrix(n, m)


def test_single_determinant_weight_is_one_hot():
    state = from_coefficients(4, 2, [((1, 3), 1.0)])
    weights, _ = diagonal_decomposition(state)
    expected = np.zeros(6)
    expected[4] = 1.0  # rank of (1, 3) among sorted pairs of range(4)
    assert np.allclose(weights, expected, atol=1e-14)


def test_superposed_pair_decomposition():
    state = from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)])
    weights, distributions = diagonal_decomposition(state)
    assert np.allclose(weights, [0.5, 0, 0, 0, 0, 0.5], atol=1e-12)
    assert np.allclose(weights @ distributions, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


def test_distribution_rows_are_flat_occupations():
    state = random_state(5, 2, 3)
    weights, distributions = diagonal_decomposition(state)
    assert weights.min() >= 0.0
    assert abs(weights.sum() - 1.0) <= 1e-12
    for row in distributions:
        assert abs(row.sum() - 1.0) == 0.0
        assert row @ row == pytest.approx(1 / 2, abs=0)
        assert set(np.unique(row)).issubset({0.0, 0.5})


@given(st.integers(0, 2**32 - 1), st.sampled_from([(4, 2), (5, 2), (6, 3), (7, 3)]))
@settings(max_examples=20, deadline=None)
def test_diagonal_matches_marginal(seed, shape):
    d, n = shape
    state = random_state(d, n, seed)
    weights, distributions = diagonal_decomposition(state)
    diagonal = weights @ distributions
    rho = compute_rdm(state)
    assert np.max(np.abs(diagonal - np.diag(rho.entries).real)) <= 1e-12
    assert abs(diagonal.sum() - 1.0) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.sampled_from([(4, 2), (6, 3), (6, 2)]))
@settings(max_examples=20, deadline=None)
def test_pairwise_purity_identity(seed, shape):
    # sum_i F_i^2 and 1/N minus the weighted pairwise distances between
    # occupation distributions are two independent evaluations of Tr of the
    # diagonal part squared; they must agree to rounding.
    d, n = shape
    state = random_state(d, n, seed)
    assert abs(pairwise_identity_gap(state)) <= 1e-10


def test_identity_holds_for_slater_states():
    for seed in range(5):
        assert abs(pairwise_identity_gap(random_slater(7, 3, seed))) <= 1e-10


@pytest.mark.parametrize("d, n", [(d, n) for d in range(1, 8) for n in range(1, d + 1)])
def test_annihilation_table_matches_basis(d, n):
    basis = OrbitalBasisIndex(d, n)
    reference = enumerated_tuples(d, n)
    assert basis.tuples().tolist() == [list(t) for t in reference]

    # The (N-1)-sector has the single empty tuple when N = 1.
    lower_rank = (lambda t: OrbitalBasisIndex(d, n - 1).ranks([t])[0]) if n > 1 else (lambda t: 0)
    tuples, small = _annihilation_table(d, n)
    assert tuples is basis.tuples()
    assert small.shape == (basis.size, n)
    for k, t in enumerate(reference):
        for m, i in enumerate(t):
            rest, expected = reference_annihilate(t, i)
            assert (small[k, m], (-1) ** m) == (lower_rank(rest), expected)

    if n < 2:
        return
    state = random_state(d, n, 10 * d + n)
    rng = np.random.default_rng([d, n])
    a = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lower = OrbitalBasisIndex(d, n - 1)
    explicit = np.zeros(lower.size, dtype=complex)
    for k, t in enumerate(reference):
        for i in t:
            rest, sgn = reference_annihilate(t, i)
            explicit[lower.ranks([rest])[0]] += np.conj(a[i]) * sgn * state.amplitudes[k]
    projected, norm = project_single_particle(state, a)
    assert norm == pytest.approx(np.linalg.norm(explicit), rel=1e-12)
    assert np.max(np.abs(norm * projected.amplitudes - explicit)) <= 1e-12
