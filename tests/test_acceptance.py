"""Acceptance suite: the numbered end-to-end guarantees this package ships with.

Each test checks one criterion at its stated tolerance, one pass/fail line
per criterion under pytest -v. The Slater and Haar-like ensembles are shared
between criteria through module-scoped fixtures, so the purity, entropy, and
double-implication sweeps all see the same states.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_unitary
from fermisep.basis import _tables
from fermisep.cli import main
from fermisep.oracle import densify, diagonal_decomposition, oracle_rdm, pairwise_identity_gap, sparsify
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.separability import analyze, esbl_check, idempotency_defect
from fermisep.spectral import eigenvalues, purity
from fermisep.states import (
    LocalUnitary,
    apply_local_unitary,
    random_slater,
    random_state,
    save_state,
)

GRID = [(n, d) for n in range(2, 6) for d in range(n, 11)]
SLATERS_PER_CELL = 200
RANDOM_TOTAL = 1000


@pytest.fixture(scope="module")
def slater_grid():
    """200 random Slater determinants per (n, d) cell, with reports and timing."""
    states, reports = {}, {}
    start = time.perf_counter()
    for n, d in GRID:
        cell = [
            random_slater(d, n, np.random.SeedSequence([101, n, d, i]))
            for i in range(SLATERS_PER_CELL)
        ]
        states[(n, d)] = cell
        reports[(n, d)] = [analyze(s) for s in cell]
    elapsed = time.perf_counter() - start
    return states, reports, elapsed


@pytest.fixture(scope="module")
def random_grid():
    """1000 Haar-like random states spread evenly over the same grid."""
    per_cell, extra = divmod(RANDOM_TOTAL, len(GRID))
    states, reports = {}, {}
    for idx, (n, d) in enumerate(GRID):
        count = per_cell + (1 if idx < extra else 0)
        cell = [
            random_state(d, n, np.random.SeedSequence([202, n, d, i])) for i in range(count)
        ]
        states[(n, d)] = cell
        reports[(n, d)] = [analyze(s) for s in cell]
    assert sum(len(v) for v in states.values()) == RANDOM_TOTAL
    return states, reports


def test_01_slater_purity_reaches_the_bound(slater_grid):
    """Purity criterion, forward direction: every Slater determinant in the
    {2..5} x {n..10} grid has |Tr(rho^2) - 1/N| <= 1e-10, within 60 s."""
    _, reports, elapsed = slater_grid
    worst = 0.0
    for (n, _), cell in reports.items():
        for report in cell:
            worst = max(worst, abs(report.purity - 1.0 / n))
    assert worst <= 1e-10
    assert elapsed <= 60.0


def test_02_purity_never_exceeds_the_bound(random_grid):
    """Purity bound: 1000 Haar-like states, purity <= 1/N + 1e-12, zero violations."""
    _, reports = random_grid
    violations = sum(
        1 for (n, _), cell in reports.items() for r in cell if r.purity > 1.0 / n + 1e-12
    )
    assert violations == 0


def test_03_entropy_criterion(slater_grid, random_grid):
    """Entropy criterion on the same ensembles: Slater determinants sit at
    ln N within 1e-8; any state with e_l > 1e-6 has strictly positive e_vn."""
    _, slater_reports, _ = slater_grid
    for (n, _), cell in slater_reports.items():
        for report in cell:
            assert abs(report.entropy - math.log(n)) <= 1e-8
    _, random_reports = random_grid
    for cell in random_reports.values():
        for report in cell:
            if report.e_l > 1e-6:
                assert report.e_vn > 0.0


def test_04_purity_and_idempotency_verdicts_coincide(slater_grid, random_grid):
    """Double implication: across all generated states the purity and
    idempotency verdicts agree at tolerance 1e-9, with zero disagreements."""
    _, slater_reports, _ = slater_grid
    _, random_reports = random_grid
    disagreements = 0
    for reports in (slater_reports, random_reports):
        for cell in reports.values():
            for r in cell:
                if r.verdict_purity != r.verdict_idempotency:
                    disagreements += 1
    assert disagreements == 0


def test_05_fast_path_matches_dense_oracle():
    """Oracle equivalence: 100 random states per (n, d) in {2,3} x {3..6},
    marginals entrywise within 1e-12 and dense round-trip within 1e-14."""
    for n in (2, 3):
        for d in (3, 4, 5, 6):
            for i in range(100):
                state = random_state(d, n, np.random.SeedSequence([404, n, d, i]))
                dense = densify(state)
                dev = np.max(np.abs(compute_rdm(state).entries - oracle_rdm(dense).entries))
                assert dev <= 1e-12
                roundtrip = np.max(np.abs(sparsify(dense).amplitudes - state.amplitudes))
                assert roundtrip <= 1e-14


def test_06_diagonal_decomposition_identity(slater_grid, random_grid):
    """Decomposition identity: sum_i F_i^2 equals 1/N minus the weighted
    pairwise distances between occupation distributions, within 1e-10, on
    every state of both ensembles."""
    slater_states, _, _ = slater_grid
    random_states, _ = random_grid
    worst = 0.0
    for states in (slater_states, random_states):
        for cell in states.values():
            for state in cell:
                worst = max(worst, abs(pairwise_identity_gap(*diagonal_decomposition(state))))
    assert worst <= 1e-10


def test_07_measures_invariant_under_local_unitaries():
    """Local-unitary invariance: purity, entropy, e_l, e_vn and the
    idempotency defect move less than 1e-9 under 20 random unitaries per
    state, for every d <= 8 cell."""
    rng = np.random.default_rng(505)
    for n, d in GRID:
        if d > 8:
            continue
        for maker, seed in ((random_state, 1), (random_slater, 2)):
            state = maker(d, n, np.random.SeedSequence([505, n, d, seed]))
            base = analyze(state)
            for _ in range(20):
                rotated = analyze(apply_local_unitary(state, LocalUnitary(random_unitary(d, rng))))
                assert abs(rotated.purity - base.purity) <= 1e-9
                assert abs(rotated.entropy - base.entropy) <= 1e-9
                assert abs(rotated.e_l - base.e_l) <= 1e-9
                assert abs(rotated.e_vn - base.e_vn) <= 1e-9
                assert abs(rotated.idempotency_defect - base.idempotency_defect) <= 1e-9


def test_08_reference_spectrum_matches_purity_but_not_idempotency():
    """A diagonal matrix with entries (1/2, 1/(2 sqrt 2), 1/(2 sqrt 2), 0)
    has purity exactly 1/2 yet an idempotency defect of about 0.0518: a
    matching purity value alone, without the matrix arising as a two-fermion
    marginal, does not force rho^2 = rho/2. The entries sum to about 1.207
    rather than 1, so no valid marginal has this spectrum; the matrix is
    evaluated exactly as given."""
    lam = np.array([0.5, 1 / (2 * math.sqrt(2)), 1 / (2 * math.sqrt(2)), 0.0])
    rho = ReducedDensityMatrix(2, np.diag(lam.astype(complex)))
    assert abs(purity(rho) - 0.5) <= 1e-15
    defect = idempotency_defect(eigenvalues(rho), rho.n)
    assert abs(defect - 0.05177669529663689) <= 1e-12
    assert defect > 1e-3


def test_09_projection_check_agrees_with_purity_verdict():
    """Projection cross-validation: 500 mixed-ensemble states at (n, d) =
    (3, 6), 16 samples each, 100% agreement with the purity verdict,
    within 120 s."""
    start = time.perf_counter()
    agreements = 0
    for i in range(500):
        maker = random_slater if i % 2 else random_state
        state = maker(6, 3, np.random.SeedSequence([606, i]))
        esbl = esbl_check(state, samples=16, seed=i)
        if esbl.separable == analyze(state).separable:
            agreements += 1
    assert agreements == 500
    assert time.perf_counter() - start <= 120.0


def test_10_two_fermion_spectra_pair_up():
    """Two-fermion structure: for 200 random states at d = 6 the reduced
    spectrum is degenerate in pairs, lambda_(2m-1) = lambda_(2m) +- 1e-9."""
    for i in range(200):
        state = random_state(6, 2, np.random.SeedSequence([707, i]))
        lam = eigenvalues(compute_rdm(state)).values
        assert np.max(np.abs(lam[0::2] - lam[1::2])) <= 1e-9


def test_11_analysis_completes_within_a_second(tmp_path, capsys):
    """Desk-scale speed: a full CLI analysis of a d = 12, n = 4 state
    (495 amplitudes) finishes in under one second, cold caches included."""
    path = tmp_path / "large.json"
    save_state(random_state(12, 4, 808), path)
    _tables.cache_clear()
    start = time.perf_counter()
    code = main(["analyze", str(path), "--json"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 1.0
