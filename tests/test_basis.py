"""Ranking and tuple order of the orbital basis, and the annihilation sign convention."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import enumerated_tuples, reference_annihilate, reference_rank, run_python
from fermisep import basis as basis_module
from fermisep.basis import OrbitalBasisIndex, _annihilation_table, _tables
from fermisep.errors import DimensionError, InvalidTupleError
from fermisep.separability import analyze, esbl_check
from fermisep.states import apply_local_unitary, from_coefficients, haar_unitary, random_state, save_state


def basis_dims(max_d: int = 8):
    return st.integers(1, max_d).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(1, d))
    )


def test_tuples_are_built_once_per_basis_and_read_only():
    b = OrbitalBasisIndex(6, 3)
    assert b.tuples() is b.tuples()
    assert OrbitalBasisIndex(6, 3).tuples() is b.tuples()
    with pytest.raises(ValueError):
        b.tuples()[0, 0] = 5
    assert b.tuples()[0].tolist() == [0, 1, 2]


def test_rank_first_and_last():
    b = OrbitalBasisIndex(4, 2)
    assert b.size == 6
    assert b.ranks([(0, 1), (2, 3)]).tolist() == [0, 5]


def test_rank_frozen_spot_value():
    # Enumerating all 20 sorted 3-subsets of range(6) lexicographically
    # puts (1, 3, 4) at position 13.
    assert OrbitalBasisIndex(6, 3).ranks([(1, 3, 4)]).tolist() == [13]


@pytest.mark.parametrize("d, n", [(d, n) for d in range(1, 8) for n in range(1, d + 1)] + [(9, 2)])
def test_rank_matches_enumeration(d, n):
    b = OrbitalBasisIndex(d, n)
    reference = enumerated_tuples(d, n)
    assert b.size == len(reference)
    assert b.ranks(reference).tolist() == list(range(b.size))
    assert b.tuples().tolist() == [list(t) for t in reference]
    assert b.ranks(np.array(reference)).tolist() == list(range(b.size))


@pytest.mark.parametrize("d, n", [(80, 78), (64, 32)])
def test_closed_form_rank_on_bases_with_huge_binomials(monkeypatch, d, n):
    # At (80, 78) a table of every C(a, b) with a < d, b <= n overflows int64
    # (C(79, 39) > 2^63), so only reachable entries may be tabulated; at
    # (64, 32) the ranks themselves come within a factor 5 of 2^63. Such a
    # basis is past the byte budget, which is lifted here: ranks need no table.
    monkeypatch.setattr(basis_module, "BYTE_BUDGET", float("inf"))
    b = OrbitalBasisIndex(d, n)
    rng = np.random.default_rng([d, n])
    rows = np.sort(np.array([rng.choice(d, n, replace=False) for _ in range(300)]), axis=1)
    rows[-1] = np.arange(d - n, d)
    expected = [reference_rank(d, n, tuple(t)) for t in rows.tolist()]
    assert b.ranks(rows.tolist()).tolist() == expected
    assert b.ranks(rows).tolist() == expected
    assert expected[-1] == b.size - 1


def test_kth_tuple_examples():
    b = OrbitalBasisIndex(4, 2)
    assert b.tuples()[0].tolist() == [0, 1]
    assert b.tuples()[5].tolist() == [2, 3]


def test_round_trip_exhaustive_six_choose_three():
    b = OrbitalBasisIndex(6, 3)
    assert b.ranks(b.tuples().tolist()).tolist() == list(range(b.size))


@given(basis_dims(), st.data())
def test_round_trip_property(dims, data):
    d, n = dims
    b = OrbitalBasisIndex(d, n)
    i = data.draw(st.integers(0, b.size - 1))
    t = enumerated_tuples(d, n)[i]
    assert len(t) == n
    assert all(a < bb for a, bb in zip(t, t[1:]))
    assert b.ranks([t]).tolist() == [i]


def test_invalid_tuples_rejected():
    b = OrbitalBasisIndex(4, 2)
    with pytest.raises(InvalidTupleError):
        b.ranks([(1, 1)])
    with pytest.raises(InvalidTupleError):
        b.ranks([(2, 1)])
    with pytest.raises(InvalidTupleError):
        b.ranks([(0, 4)])
    with pytest.raises(InvalidTupleError):
        b.ranks([(0, 1, 2)])
    for rows in ([[1, 1]], [[2, 1]], [[0, 4]], [[-1, 2]], [[0, 1, 2]], [0, 1]):
        with pytest.raises(InvalidTupleError):
            b.ranks(np.array(rows))
    # The error names the first bad row of a listing, ragged or past int64 too.
    for rows, row, t in (
        ([[0, 1], [1, 3], [3, 2], [0, 4]], 2, "(3, 2)"),
        ([[0, 1], [2, 3, 0], [1]], 1, "(2, 3, 0)"),
        ([[0, 1], [0, 2**70]], 1, f"(0, {2**70})"),
    ):
        with pytest.raises(InvalidTupleError) as err:
            b.ranks(rows)
        assert err.value.row == row
        assert str(err.value) == f"row {row}: {t} is not 2 strictly increasing orbitals in [0, 4)"
    assert b.ranks([]).tolist() == []


def test_a_refused_row_is_found_in_logarithmically_many_conversions(monkeypatch):
    """The first refused row of 4096 is found by halving: a bool in the last row, so the listing does not convert
    and its halves are converted in turn, or a reversed last tuple, read off the one converted array."""
    calls = []
    frozen = basis_module._frozen
    monkeypatch.setattr(basis_module, "_frozen", lambda *args: calls.append(1) or frozen(*args))
    for last in [(0, True), (1, 0)]:
        calls.clear()
        with pytest.raises(InvalidTupleError) as err:
            OrbitalBasisIndex(4, 2).ranks([(0, 1)] * 4095 + [last])
        assert err.value.row == 4095
        assert str(err.value) == f"row 4095: {last} is not 2 strictly increasing orbitals in [0, 4)"
        assert len(calls) <= 2 * 13 + 2  # 4096 = 2^12 rows: at most two conversions a halving, and one each side


def test_dimension_validation():
    with pytest.raises(DimensionError):
        OrbitalBasisIndex(3, 4)
    with pytest.raises(DimensionError):
        OrbitalBasisIndex(0, 1)
    # Not integers: a float, a string or a bool, here or through the state builders.
    for d, n in [(4.0, 2), (4, 2.0), ("4", 2), (True, True), (4, False)]:
        for make in (OrbitalBasisIndex, lambda d, n: random_state(d, n, 0), lambda d, n: from_coefficients(d, n, [])):
            with pytest.raises(DimensionError, match="must be integers"):
                make(d, n)
    assert OrbitalBasisIndex(np.int64(6), np.int32(3)).tuples() is OrbitalBasisIndex(6, 3).tuples()


def test_unsigned_integers_past_intp_are_refused_as_given():
    """An unsigned int in [2^63, 2^64) is refused and echoed as given, not wrapped around to a negative intp."""
    for d, n, given in [(4, np.uint64(2**64 - 1), "18446744073709551615"), (2**63, 1, "9223372036854775808")]:
        with pytest.raises(DimensionError, match=f"got (np.uint64\\()?{given}\\)?, past the range of int64"):
            OrbitalBasisIndex(d, n)


def test_ladder_benchmark_and_verify_bases_are_within_the_byte_budget():
    """Constructor only: the ladder points, the benchmark sizes and every cell of verify's grids up to (12, 5)."""
    ladder = [(24, 7), (28, 7), (24, 17)]
    benchmarks = [(10, 5), (20, 5), (12, 5)]
    for d, n in ladder + benchmarks + [(d, n) for n in range(2, 6) for d in range(n, 13)]:
        assert OrbitalBasisIndex(d, n).size > 0
    with pytest.raises(DimensionError, match="bytes to analyze"):
        OrbitalBasisIndex(30, 9)
    with pytest.raises(DimensionError, match="at most 2048"):
        OrbitalBasisIndex(2049, 1)
    assert OrbitalBasisIndex(2048, 1).size == 2048


def reference_small(d, n):
    """The annihilation table as ranks of the (N-1)-sector, one deleted column at a time."""
    t = OrbitalBasisIndex(d, n).tuples()
    lower = OrbitalBasisIndex(d, n - 1).ranks if n > 1 else (lambda rows: np.zeros(len(rows), dtype=np.intp))
    return np.stack([lower(np.delete(t, m, axis=1)) for m in range(n)], axis=1)


@pytest.mark.parametrize("d, n", [(12, 5), (20, 5)])
def test_annihilation_table_equals_the_ranks_of_deleted_columns(d, n):
    _, small = _annihilation_table(d, n)
    assert small.dtype == np.intp
    assert np.array_equal(small, reference_small(d, n))


def test_annihilation_table_never_runs_the_tuple_check(monkeypatch):
    def refuse(self, tuples):
        raise AssertionError("ranks called on the package's own tuples")

    monkeypatch.setattr(OrbitalBasisIndex, "ranks", refuse)
    _tables.cache_clear()
    for d, n in [(1, 1), (4, 1), (4, 2), (4, 4), (6, 3), (7, 7)]:
        t, small = _annihilation_table(d, n)
        assert t is OrbitalBasisIndex(d, n).tuples()
        assert small.shape == (len(t), n)
        if n == 1:
            assert not small.any()


def test_the_table_cache_stays_within_the_byte_budget():
    """rho of random_state(d, 3, 0) for d = 60...123 in one process, each basis within a 64 MiB budget (the largest
    needs 47 MiB): the cache is emptied before it would pass the budget, where 64 kept bases needed 673 MiB."""
    walk = (
        "import resource\nfrom fermisep import basis, compute_rdm, random_state\nbasis.BYTE_BUDGET = 2**26\n"
        "for d in range(60, 124):\n    compute_rdm(random_state(d, 3, 0))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    result = run_python("-c", walk)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 200 * 1024  # ru_maxrss is in KiB


def test_workload_loops_rebuild_no_table():
    state, big = random_state(10, 5, 0), random_state(14, 7, 1)
    u = haar_unitary(10, np.random.default_rng(0))

    def rounds(count):
        for _ in range(count):
            rotated = apply_local_unitary(state, u)
            analyze(state)
            analyze(rotated)
            esbl_check(rotated, samples=16)
        esbl_check(big)

    rounds(1)
    misses = _tables.cache_info().misses
    rounds(3)
    assert _tables.cache_info().misses == misses


def test_save_state_builds_no_annihilation_table(tmp_path):
    _tables.cache_clear()
    save_state(random_state(9, 4, 0), tmp_path / "state.json")
    assert _tables(9, 4)[1] is None


def test_annihilate_examples():
    assert reference_annihilate((0, 1, 2), 0) == ((1, 2), 1)
    assert reference_annihilate((0, 1, 2), 1) == ((0, 2), -1)
    assert reference_annihilate((0, 1, 2), 3) is None


@given(basis_dims(max_d=7), st.data())
def test_annihilation_order_anticommutes(dims, data):
    d, n = dims
    if n < 2:
        return
    t = data.draw(st.sampled_from(enumerated_tuples(d, n)))
    p = data.draw(st.sampled_from(t))
    q = data.draw(st.sampled_from([x for x in t if x != p]))

    r1, s1 = reference_annihilate(t, p)
    r2, s2 = reference_annihilate(r1, q)
    r3, s3 = reference_annihilate(t, q)
    r4, s4 = reference_annihilate(r3, p)
    assert r2 == r4
    assert s1 * s2 == -(s3 * s4)
