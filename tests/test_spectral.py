"""Eigenvalues, purity, and entropies of reduced density matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from fermisep.errors import NotADensityMatrixError
from fermisep.oracle import diagonal_decomposition
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.spectral import Spectrum, eigenvalues, purity
from fermisep.states import (
    LocalUnitary,
    apply_local_unitary,
    from_coefficients,
    random_slater,
    random_state,
)


def diag_rdm(values, n=2):
    return ReducedDensityMatrix(n, np.diag(np.asarray(values, dtype=complex)))


def test_eigenvalues_of_diagonal_matrices():
    assert np.allclose(eigenvalues(diag_rdm([0.5, 0.5])).values, [0.5, 0.5])
    assert np.allclose(eigenvalues(diag_rdm([0.5, 0, 0, 0.5])).values, [0.5, 0.5, 0, 0])


def test_slater_spectrum_is_flat():
    rho = compute_rdm(random_slater(6, 3, 8))
    lam = eigenvalues(rho).values
    assert np.allclose(lam[:3], [1 / 3] * 3, atol=1e-10)
    assert np.allclose(lam[3:], 0.0, atol=1e-10)


def test_eigensolver_reconstruction_residual():
    rho = compute_rdm(random_state(6, 3, 21)).entries
    lam, q = np.linalg.eigh(rho)
    assert np.max(np.abs(rho - (q * lam) @ q.conj().T)) <= 1e-10


def test_non_hermitian_input_rejected():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(NotADensityMatrixError):
        eigenvalues(ReducedDensityMatrix(2, m))


def test_purity_examples():
    assert purity(diag_rdm([0.5, 0.5])) == pytest.approx(0.5, abs=1e-15)
    state = from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)])
    assert purity(compute_rdm(state)) == pytest.approx(0.25, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_purity_equals_eigenvalue_square_sum(seed):
    rho = compute_rdm(random_state(6, 3, seed))
    lam = eigenvalues(rho).values
    assert abs(purity(rho) - float(lam @ lam)) <= 1e-11


def entropy(rdm):
    """Von Neumann entropy -Tr(rho ln rho) in nats."""
    return eigenvalues(rdm).entropy()


def test_entropy_examples():
    assert entropy(diag_rdm([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)
    state = from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)])
    assert entropy(compute_rdm(state)) == pytest.approx(math.log(4), abs=1e-12)
    for n, d in [(2, 5), (3, 6), (4, 7)]:
        rho = compute_rdm(random_slater(d, n, 13))
        assert abs(entropy(rho) - math.log(n)) <= 1e-9


def test_entropy_clamps_noise_but_rejects_garbage():
    noisy = diag_rdm([0.5 + 2.5e-11, 0.5, -5e-11, 0.0])
    assert entropy(noisy) == pytest.approx(math.log(2), abs=1e-9)
    with pytest.raises(NotADensityMatrixError):
        entropy(diag_rdm([0.6, 0.5, -0.1, 0.0]))


def test_spectrum_clamp_threshold():
    # -5e-9 sits above the hard threshold and drops out of the entropy like
    # noise; -5e-8 is beyond it, and NaN or an infinity is no eigenvalue of
    # a density matrix, so building the spectrum must raise.
    assert Spectrum(np.array([0.6, 0.5, -5e-9])).entropy() == Spectrum(np.array([0.6, 0.5, 0.0])).entropy()
    for bad in ([0.6, 0.5, -5e-8], [0.5, np.nan], [0.5, np.inf], [0.5, -np.inf]):
        with pytest.raises(NotADensityMatrixError):
            Spectrum(np.array(bad))


def test_shannon_entropy_examples():
    # Spectrum.entropy is the Shannon entropy of its values, for any probability vector.
    assert Spectrum(np.array([1.0, 0, 0, 0])).entropy() == 0.0
    for n in (2, 3, 5):
        uniform = np.full(n, 1 / n)
        assert Spectrum(uniform).entropy() == pytest.approx(math.log(n), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_diagonal_entropy_bounded_below(seed):
    state = random_state(6, 3, seed)
    weights, distributions = diagonal_decomposition(state)
    assert Spectrum(weights @ distributions).entropy() >= math.log(3) - 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_majorization_chain_over_bases(seed):
    # In any single-particle basis the diagonal of rho_r is more mixed than
    # the spectrum, so its Shannon entropy dominates the von Neumann entropy,
    # which in turn is at least ln N.
    rng = np.random.default_rng(seed)
    state = random_state(6, 3, seed)
    rho = compute_rdm(state)
    s_spectrum = entropy(rho)
    assert s_spectrum >= math.log(3) - 1e-8

    bases = [np.eye(6)] + [random_unitary(6, rng) for _ in range(10)]
    for u in bases:
        rotated = u.conj().T @ rho.entries @ u
        diag = np.real(np.diag(rotated)).copy()
        diag[diag < 0] = 0.0
        assert Spectrum(diag / diag.sum()).entropy() >= s_spectrum - 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_purity_and_entropy_are_basis_independent(seed):
    rng = np.random.default_rng(100 + seed)
    state = random_state(6, 3, seed)
    rho = compute_rdm(state)
    rotated = compute_rdm(apply_local_unitary(state, LocalUnitary(random_unitary(6, rng))))
    assert abs(purity(rho) - purity(rotated)) <= 1e-9
    assert abs(entropy(rho) - entropy(rotated)) <= 1e-9
