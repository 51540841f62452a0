"""Separability verdicts, entanglement measures, and the projection check."""

import json
import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermisep import separability
from fermisep.errors import DimensionError
from fermisep.oracle import densify, diagonal_decomposition, oracle_rdm, pairwise_identity_gap
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.reporting import render_json
from fermisep.separability import (
    EsblSample,
    analyze,
    esbl_check,
    idempotency_defect,
    project_single_particle,
)
from fermisep.spectral import eigenvalues, purity
from fermisep.states import (
    FermionState,
    apply_local_unitary,
    from_coefficients,
    haar_unitary,
    load_state,
    parse_state,
    random_slater,
    random_state,
    save_state,
)


def diag_rdm(values, n=2):
    return ReducedDensityMatrix(n, np.diag(np.asarray(values, dtype=complex)))


def test_slater_state_reports_separable():
    report = analyze(random_slater(8, 3, 4))
    assert abs(report.e_l) <= 1e-10
    assert abs(report.e_vn) <= 1e-8
    assert report.verdict_purity and report.verdict_entropy and report.verdict_idempotency
    assert report.separable


def test_superposed_pair_reports_entangled():
    report = analyze(from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)]))
    assert report.purity == pytest.approx(0.25, abs=1e-12)
    assert report.e_l == pytest.approx(0.25, abs=1e-12)
    assert report.e_vn == pytest.approx(math.log(2), abs=1e-12)
    assert not (report.verdict_purity or report.verdict_entropy or report.verdict_idempotency)
    assert not report.separable


def test_two_fermion_e_l_maximum_is_attained_by_flat_spectrum():
    # Over four orbitals the reduced spectrum cannot be flatter than 1/4,
    # so e_l is capped at 1/2 - 1/4; the even superposition reaches it.
    flat = analyze(from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)]))
    assert flat.e_l == pytest.approx(0.25, abs=1e-12)
    worst = max(analyze(random_state(4, 2, seed)).e_l for seed in range(300))
    assert worst <= 0.25 + 1e-10


def test_idempotency_defect_examples():
    rho = diag_rdm([0.5, 0.5])
    assert idempotency_defect(eigenvalues(rho), rho.n) == 0.0
    rho = compute_rdm(random_slater(6, 3, 11))
    assert idempotency_defect(eigenvalues(rho), rho.n) <= 1e-10


@pytest.mark.parametrize("n", ["3", 0, 2.5, True, -1], ids=["string", "zero", "float", "bool", "negative"])
def test_idempotency_defect_refuses_n_that_is_not_a_positive_integer(n):
    spectrum = eigenvalues(compute_rdm(random_state(6, 3, 0)))
    with pytest.raises(DimensionError, match=r"^expected (an integer n|n >= 1), got"):
        idempotency_defect(spectrum, n)


def test_idempotency_defect_is_the_operator_norm_of_the_matrix_defect():
    """On a non-diagonal (8,3) marginal the spectral defect is the 2-norm of rho^2 - rho/N, the matrix form it
    replaces, and at least that matrix's largest entry."""
    rho = compute_rdm(random_state(8, 3, 7))
    assert np.max(np.abs(rho.entries - np.diag(np.diag(rho.entries)))) > 1e-3
    matrix = rho.entries @ rho.entries - rho.entries / 3
    defect = idempotency_defect(eigenvalues(rho), rho.n)
    assert abs(defect - np.linalg.norm(matrix, 2)) <= 1e-15
    assert defect >= np.max(np.abs(matrix))


def test_reference_spectrum_fails_idempotency_despite_matching_purity():
    """A diagonal matrix with entries (1/2, 1/(2 sqrt 2), 1/(2 sqrt 2), 0).

    Its squared entries sum to exactly 1/2, the value a separable
    two-fermion marginal would have, yet rho^2 != rho/2: purity alone,
    without the matrix actually being an N-fermion marginal, does not
    force the flat spectrum. Note the entries sum to 1/2 + 1/sqrt(2)
    (about 1.207), not 1, so this is not a valid density-matrix spectrum;
    it is used here exactly as stated to pin the defect value.
    """
    lam = [0.5, 1 / (2 * math.sqrt(2)), 1 / (2 * math.sqrt(2)), 0.0]
    rho = diag_rdm(lam)
    assert purity(rho) == pytest.approx(0.5, abs=1e-15)
    defect = idempotency_defect(eigenvalues(rho), rho.n)
    assert defect == pytest.approx(abs(1 / 8 - 1 / (4 * math.sqrt(2))), abs=1e-15)
    assert defect == pytest.approx(0.05177669529663689, abs=1e-12)
    assert defect > 1e-3


def slater_rank(state):
    return separability._rank_and_residual(state)[0]


def test_two_fermion_slater_rank():
    assert slater_rank(from_coefficients(4, 2, [((0, 1), 1.0)])) == 1
    assert slater_rank(from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)])) == 2


@pytest.mark.parametrize("seed", range(10))
def test_two_fermion_spectrum_pairs_up(seed):
    lam = eigenvalues(compute_rdm(random_state(6, 2, seed))).values
    assert np.max(np.abs(lam[0::2] - lam[1::2])) <= 1e-9


def test_projection_of_slater_is_slater_or_null(fixtures_dir):
    rng = np.random.default_rng(0)
    state = random_slater(6, 3, 17)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    projected, norm = project_single_particle(state, a / np.linalg.norm(a))
    assert projected is not None and norm > 1e-10
    assert projected.n == 2
    assert slater_rank(projected) == 1

    # Projecting along an unoccupied orbital annihilates the state.
    localized, _ = load_state(fixtures_dir / "localized_pair.json")
    null, norm = project_single_particle(localized, np.array([0, 1, 0, 0], dtype=complex))
    assert null is None
    assert norm <= 1e-10


def test_projection_validation():
    state = random_state(6, 3, 0)
    with pytest.raises(DimensionError):
        project_single_particle(state, np.ones(5, dtype=complex))
    with pytest.raises(DimensionError, match="^projection needs at least two particles$"):
        project_single_particle(from_coefficients(3, 1, [((0,), 1.0)]), np.ones(3, dtype=complex))
    # A non-finite direction is refused as such, before any arithmetic can warn.
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        for a in (np.full(6, bad, dtype=complex), np.array([1, 0, bad, 0, 0, 0], dtype=complex)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DimensionError, match="^direction entry"):
                    project_single_particle(state, a)


def test_esbl_on_fixtures(fixtures_dir):
    assert esbl_check(random_slater(6, 3, 23), samples=16, seed=1).separable
    split, _ = load_state(fixtures_dir / "split_triple.json")
    result = esbl_check(split, samples=16, seed=1)
    assert not result.separable
    assert result.max_residual > 1e-6


def test_esbl_two_fermions_reads_rank_directly():
    sep = esbl_check(from_coefficients(4, 2, [((0, 2), 1.0)]), samples=4, seed=0)
    assert sep.separable and len(sep.samples) == 1
    ent = esbl_check(from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)]), samples=4, seed=0)
    assert not ent.separable


def test_esbl_reads_one_spectrum_per_chain(monkeypatch):
    calls = []

    def counting(state):
        calls.append(state.n)
        return compute_rdm(state)

    monkeypatch.setattr(separability, "compute_rdm", counting)
    result = esbl_check(random_state(8, 4, 2), samples=16, seed=0)
    assert len(result.samples) == 16 and not any(s.null for s in result.samples)
    assert calls == [2] * 16


def test_esbl_counts_a_null_projection_as_a_separable_chain(monkeypatch):
    monkeypatch.setattr(separability, "project_single_particle", lambda state, direction: (None, 0.0))
    result = esbl_check(random_state(6, 3, 0), samples=2, seed=0)
    assert result.separable
    assert result.samples == (EsblSample((0.0,), 0.0, True, True),) * 2


def test_esbl_rejects_bad_sample_count():
    with pytest.raises(DimensionError):
        esbl_check(random_state(6, 3, 0), samples=0, seed=0)


def test_esbl_refuses_one_fermion():
    with pytest.raises(DimensionError, match="^projection check needs n >= 2, got n=1$"):
        esbl_check(from_coefficients(3, 1, [((0,), 1.0)]), samples=4, seed=0)


@pytest.mark.parametrize(
    "tolerance", [math.nan, math.inf, float("1e400"), 0.0, -1.0], ids=["nan", "inf", "1e400", "0", "-1"]
)
def test_analyze_refuses_tolerance_not_positive_and_finite(tolerance):
    with pytest.raises(DimensionError, match="tolerance must be positive and finite"):
        analyze(random_state(4, 2, 0), tolerance=tolerance)


# Calls that pass a plain array, or another package object, where a package object belongs.
WRONG_OBJECTS = {
    "rotation-by-an-array": (lambda: apply_local_unitary(random_state(6, 3, 0), np.eye(6)), "u", "LocalUnitary"),
    "rdm-an-array": (lambda: analyze(random_state(6, 3, 0), rdm=np.eye(6) / 6), "rdm", "ReducedDensityMatrix"),
    "purity-of-an-array": (lambda: purity(np.eye(2)), "rdm", "ReducedDensityMatrix"),
    "eigenvalues-of-an-array": (lambda: eigenvalues(np.eye(2)), "rdm", "ReducedDensityMatrix"),
    "defect-of-a-marginal": (lambda: idempotency_defect(compute_rdm(random_state(6, 3, 0)), 3), "spectrum", "Spectrum"),
    "rotation-of-an-array": (lambda: apply_local_unitary(np.ones(20), haar_unitary(6, 0)), "state", "FermionState"),
    "analyze-an-array": (lambda: analyze(np.ones(20)), "state", "FermionState"),
    "marginal-of-an-array": (lambda: compute_rdm(np.ones(20)), "state", "FermionState"),
    "project-an-array": (lambda: project_single_particle(np.ones(20), np.ones(6)), "state", "FermionState"),
    "esbl-of-an-array": (lambda: esbl_check(np.ones(20)), "state", "FermionState"),
    "densify-an-array": (lambda: densify(np.ones(20)), "state", "FermionState"),
    "densify-a-list": (lambda: densify([1.0] * 20), "state", "FermionState"),
    "decompose-an-array": (lambda: diagonal_decomposition(np.ones(20)), "state", "FermionState"),
    "decompose-a-list": (lambda: diagonal_decomposition([1.0] * 20), "state", "FermionState"),
    "oracle-marginal-of-a-tensor": (lambda: oracle_rdm(np.ones((2, 2))), "state", "FermionState"),
    "identity-gap-of-weights": (lambda: pairwise_identity_gap(np.ones(2)), "state", "FermionState"),
    "parse-an-int": (lambda: parse_state(123), "text", "str"),
    "parse-bytes": (lambda: parse_state(b"{}"), "text", "str"),
    "state-on-a-tuple": (lambda: FermionState((6, 3), np.ones(20)), "basis", "OrbitalBasisIndex"),
}


@pytest.mark.parametrize("call, name, kind", WRONG_OBJECTS.values(), ids=WRONG_OBJECTS.keys())
def test_a_package_object_of_the_wrong_kind_is_refused_by_the_type_it_expects(call, name, kind):
    with pytest.raises(DimensionError, match=f"^{name} must be of type {kind}, got "):
        call()


def test_save_state_refuses_an_array_and_writes_nothing(tmp_path):
    with pytest.raises(DimensionError, match="^state must be of type FermionState, got ndarray$"):
        save_state(np.ones(20), tmp_path / "out" / "state.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("d, n", [(8, 2), (6, 2), (8, 3), (6, 4)])
def test_analyze_refuses_a_marginal_of_another_basis(d, n):
    state = random_state(6, 3, 0)
    with pytest.raises(DimensionError, match=f"rdm is of n={n} in {d} orbitals, state has d=6, n=3"):
        analyze(state, rdm=compute_rdm(random_state(d, n, 1)))


def test_analyze_takes_a_marginal_of_the_states_own_basis():
    state = random_state(6, 3, 0)
    assert analyze(state, rdm=compute_rdm(state)) == analyze(state)
    flat = analyze(state, rdm=ReducedDensityMatrix(3, np.eye(6) / 6))
    assert len(flat.spectrum.values) == 6 and flat.purity == pytest.approx(1 / 6)


@pytest.mark.parametrize("tolerance", [np.int64(1), np.uint64(2**64 - 1)], ids=["int64", "uint64-max"])
def test_analyze_keeps_the_tolerance_it_checked_as_a_float(tolerance):
    """A numpy integer tolerance is stored as a float: the report renders, and tolerance * N cannot wrap around."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(random_state(4, 2, 0), tolerance=tolerance)
    assert type(report.tolerance) is float and report.tolerance == float(tolerance)
    assert json.loads(render_json(report.to_dict()))["tolerance"] == float(tolerance)
    assert report.verdict_entropy


@pytest.mark.parametrize("slater", [False, True])
def test_esbl_agrees_with_purity_verdict(slater):
    maker = random_slater if slater else random_state
    for seed in range(40):
        state = maker(6, 3, seed)
        assert esbl_check(state, samples=8, seed=seed).separable == analyze(state).separable


def test_four_particle_chain_recursion():
    assert esbl_check(random_slater(8, 4, 2), samples=6, seed=3).separable
    assert not esbl_check(random_state(8, 4, 2), samples=6, seed=3).separable


def test_squared_concurrence_comparison():
    # Documented comparison for two fermions in four orbitals: 4 * e_l
    # coincides with the squared concurrence 4 |c01 c23 - c02 c13 + c03 c12|^2
    # (amplitudes indexed by sorted pairs). Kept as a cross-check, not a gate.
    for seed in range(25):
        state = random_state(4, 2, seed)
        c = state.amplitudes
        concurrence = 2 * abs(c[0] * c[5] - c[1] * c[4] + c[2] * c[3])
        assert 4 * analyze(state).e_l == pytest.approx(concurrence**2, abs=1e-12)


def plucker_matrix(state: FermionState) -> np.ndarray:
    """K = Phi^T Phi+, where Phi[i, S] = <S|a_i|psi> over (N-1)-tuples S and
    Phi+[i, S] = <S|a_i^dagger|psi> over (N+1)-tuples, both built from
    itertools. Its entries are the Pluecker relations, so K vanishes exactly
    on Slater determinants."""
    d, n = state.d, state.n
    lower = {s: k for k, s in enumerate(combinations(range(d), n - 1))}
    upper = {s: k for k, s in enumerate(combinations(range(d), n + 1))}
    phi = np.zeros((d, len(lower)), dtype=complex)
    phi_plus = np.zeros((d, len(upper)), dtype=complex)
    for t, c in zip(combinations(range(d), n), state.amplitudes):
        for k, i in enumerate(t):
            phi[i, lower[t[:k] + t[k + 1:]]] = (-1) ** k * c
        for i in set(range(d)) - set(t):
            k = sum(x < i for x in t)
            phi_plus[i, upper[t[:k] + (i,) + t[k:]]] = (-1) ** k * c
    return phi.T @ phi_plus


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d, n", [(6, 3), (7, 2), (8, 4)])
def test_e_l_is_the_squared_norm_of_the_plucker_matrix(d, n, seed):
    # With G_ij = <a_j^dagger a_i> = N rho_ij, ||K||_F^2 = Tr G - Tr G^2 = N^2 e_l.
    state = random_state(d, n, seed)
    assert np.sum(np.abs(plucker_matrix(state)) ** 2) == pytest.approx(n**2 * analyze(state).e_l, abs=1e-12)
    assert np.sum(np.abs(plucker_matrix(random_slater(d, n, seed))) ** 2) <= 1e-28


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(4, 2), (6, 3), (8, 4)]),
    st.one_of(st.none(), st.floats(-10, -1).map(lambda x: 10**x)),
)
@settings(max_examples=50, deadline=None)
def test_measures_nonnegative_and_verdicts_consistent(seed, shape, eps):
    """Random states, or Slater + eps * random. The verdicts nest: rho^2 - rho/N is
    negative semidefinite, so the idempotency defect is at most e_l, and Renyi-2 <=
    von Neumann gives e_vn >= N e_l; hence entropy-separable => purity-separable =>
    idempotency-separable."""
    d, n = shape
    noise = random_state(d, n, seed)
    if eps is None:
        state = noise
    else:
        slater = random_slater(d, n, seed)
        state = FermionState(slater.basis, slater.amplitudes + eps * noise.amplitudes)
    report = analyze(state)
    assert report.e_l >= -report.tolerance
    assert report.e_vn >= -report.tolerance
    assert report.idempotency_defect <= report.e_l + 1e-14
    assert report.e_vn >= n * report.e_l - 1e-14
    assert report.verdict_idempotency or not report.verdict_purity
    assert report.verdict_purity or not report.verdict_entropy
    if eps is None:
        assert report.verdict_purity == report.verdict_idempotency


@pytest.mark.parametrize("d, n", [(8, 4), (12, 5)])
@pytest.mark.parametrize("seed", range(3))
def test_near_separable_measures_are_nonnegative_and_quadratic_in_eps(d, n, seed):
    """Slater + eps * random: e_l and e_vn stay nonnegative, and e_l / eps^2 stays
    within 1 % of its value at eps = 1e-3 down to eps = 1e-6 (at 1e-7 rounding
    moves it by several per cent)."""
    slater, noise = random_slater(d, n, seed), random_state(d, n, 100 + seed)
    scaled = {}
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        report = analyze(FermionState(slater.basis, slater.amplitudes + eps * noise.amplitudes))
        assert report.e_l >= 0.0 and report.e_vn >= 0.0, eps
        scaled[eps] = report.e_l / eps**2
    for eps, value in scaled.items():
        assert value == pytest.approx(scaled[1e-3], rel=1e-2), eps


def test_report_serialization_round_trip():
    report = analyze(random_slater(5, 2, 9))
    doc = report.to_dict()
    assert doc["verdicts"]["separable"] is True
    assert doc["tolerance"] == report.tolerance
    assert set(doc) == {
        "purity", "entropy_nats", "e_l", "e_vn", "idempotency_defect", "tolerance", "verdicts",
    }
