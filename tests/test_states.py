"""Construction, normalization, transformation, and file round-trips of states."""

import json
import time
import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_ARGUMENTS, MALFORMED_STATES, enumerated_tuples, random_unitary, reference_exterior_power
from fermisep import basis as basis_module
from fermisep import states as states_module
from fermisep.basis import OrbitalBasisIndex
from fermisep.errors import (
    DegenerateOrbitalsError,
    DimensionError,
    DuplicateEntryError,
    FermisepError,
    NonUnitaryError,
    StateFormatError,
    ZeroStateError,
)
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.reporting import render_json
from fermisep.separability import analyze
from fermisep.spectral import Spectrum, purity
from fermisep.states import (
    FermionState,
    LocalUnitary,
    apply_local_unitary,
    from_coefficients,
    haar_unitary,
    load_state,
    parse_state,
    random_slater,
    random_state,
    save_state,
    slater_from_orbitals,
)


def test_from_coefficients_single_tuple():
    state = from_coefficients(2, 2, [((0, 1), 1.0)])
    assert state.amplitudes.shape == (1,)
    assert state.amplitude((0, 1)) == pytest.approx(1.0)


def test_from_coefficients_normalizes_symmetric_pair():
    state = from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)])
    expected = np.array([1, 0, 0, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_from_coefficients_rejects_duplicates_and_zero():
    with pytest.raises(DuplicateEntryError):
        from_coefficients(4, 2, [((0, 1), 1.0), ((0, 1), 2.0)])
    with pytest.raises(DuplicateEntryError, match=r"\(0, 1\)") as err:
        from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0), ((0, 1), 2.0)])
    assert err.value.row == 2
    with pytest.raises(ZeroStateError):
        from_coefficients(4, 2, [((0, 1), 0.0)])


def test_near_unit_norm_input_is_normalized():
    # A norm 4.8e-13 off 1 shifts Tr rho^2 by more than e_l of a Slater state.
    slater = random_slater(12, 5, 1)
    state = FermionState(slater.basis, slater.amplitudes * (1 + 4.8e-13))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-15
    assert analyze(state).e_l >= -1e-15


def test_random_entries_come_out_normalized():
    rng = np.random.default_rng(1)
    basis_size = 20
    entries = []
    for k in range(basis_size):
        entries.append((enumerated_tuples(6, 3)[k], complex(rng.standard_normal(), rng.standard_normal())))
    state = from_coefficients(6, 3, entries)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


def test_slater_standard_basis():
    state = slater_from_orbitals([np.array([1, 0]), np.array([0, 1])])
    assert state.amplitude((0, 1)) == pytest.approx(1.0)


def test_slater_depends_only_on_span():
    e0 = np.array([1, 0, 0, 0], dtype=complex)
    oblique = (e0 + np.array([0, 1, 0, 0])) / np.sqrt(2)
    state = slater_from_orbitals([e0, oblique])
    assert abs(abs(state.amplitude((0, 1))) - 1.0) <= 1e-12

    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    q, _ = np.linalg.qr(m)
    r = random_unitary(3, rng)
    s1 = slater_from_orbitals(q)
    s2 = slater_from_orbitals(q @ r)
    overlap = abs(np.vdot(s1.amplitudes, s2.amplitudes))
    assert abs(overlap - 1.0) <= 1e-10


def test_slater_rejects_dependent_orbitals():
    v = np.array([1, 1, 0, 0], dtype=complex)
    for scale in (1.0, 1e-200, 1e200):
        with pytest.raises(DegenerateOrbitalsError):
            slater_from_orbitals([scale * v, 2 * scale * v])


def test_constructors_refuse_a_wrong_shape():
    with pytest.raises(DimensionError, match="expected 6 amplitudes"):
        FermionState(OrbitalBasisIndex(4, 2), np.ones(5))
    with pytest.raises(DimensionError, match="stack of vectors"):
        slater_from_orbitals(np.zeros(3))


def test_slater_orbitals_of_any_finite_scale():
    v = np.array([1, 2j, 0, -1], dtype=complex)
    w = np.array([0, 1, 1 - 1j, 3], dtype=complex)
    reference = slater_from_orbitals([v, w]).amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for pair in ([1e-200 * v, 1e-200 * w], [1e200 * v, 1e200 * w], [v, 1e-200 * w]):
            assert np.max(np.abs(slater_from_orbitals(pair).amplitudes - reference)) <= 1e-14


def test_slater_names_a_non_finite_orbital():
    v = np.array([1, 2j, 0, -1], dtype=complex)
    w = np.array([0, 1, 1 - 1j, 3], dtype=complex)
    with np.errstate(all="ignore"):
        cases = (([np.inf * v, w], 0), ([v, np.nan * w], 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for orbitals, index in cases:
            with pytest.raises(DegenerateOrbitalsError, match=f"orbital {index} "):
                slater_from_orbitals(orbitals)


@pytest.mark.parametrize("d, n", [(6, 3), (8, 4)])
def test_slater_amplitudes_are_minors_of_cholesky_orthonormalized_orbitals(d, n):
    # Q = m R^-1 with m^dag m = R^dag R, R upper triangular with a positive
    # diagonal: the orthonormalization Gram-Schmidt gives, reached without QR.
    rng = np.random.default_rng([d, n])
    m = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    r = np.linalg.cholesky(m.conj().T @ m).conj().T
    q = m @ np.linalg.inv(r)
    expected = [np.linalg.det(q[list(t), :]) for t in enumerated_tuples(d, n)]
    assert np.max(np.abs(slater_from_orbitals(m).amplitudes - expected)) <= 1e-12


def test_slater_purity_is_inverse_particle_number():
    state = random_slater(6, 3, 99)
    assert abs(purity(compute_rdm(state)) - 1 / 3) <= 1e-10


def test_identity_unitary_fixes_state():
    state = random_state(5, 2, 0)
    u = LocalUnitary(np.eye(5))
    assert np.allclose(apply_local_unitary(state, u).amplitudes, state.amplitudes, atol=1e-12)


def test_diagonal_phases_multiply():
    alphas = np.array([0.3, -1.1, 0.7, 2.0])
    u = LocalUnitary(np.diag(np.exp(1j * alphas)))
    state = from_coefficients(4, 2, [((0, 1), 1.0)])
    rotated = apply_local_unitary(state, u)
    expected = np.exp(1j * (alphas[0] + alphas[1]))
    assert rotated.amplitude((0, 1)) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("d, n, seed", [(4, 2, 0), (5, 2, 1), (6, 3, 2)])
def test_exterior_power_is_a_homomorphism(d, n, seed):
    rng = np.random.default_rng(seed)
    state = random_state(d, n, seed)
    u = LocalUnitary(random_unitary(d, rng))
    v = LocalUnitary(random_unitary(d, rng))
    via_two_steps = apply_local_unitary(apply_local_unitary(state, u), v)
    combined = apply_local_unitary(state, LocalUnitary(v.matrix @ u.matrix))
    assert np.max(np.abs(via_two_steps.amplitudes - combined.amplitudes)) <= 1e-9


@pytest.mark.parametrize("d, n", [(4, 2), (6, 3), (7, 4)])
def test_rotation_is_the_exterior_power_by_definition(d, n):
    u = random_unitary(d, np.random.default_rng([d, n]))
    state = random_state(d, n, 10 * d + n)
    rotated = apply_local_unitary(state, LocalUnitary(u)).amplitudes
    assert np.max(np.abs(rotated - reference_exterior_power(u, d, n) @ state.amplitudes)) <= 1e-12


@pytest.mark.parametrize("rows", [1, 3])
def test_minors_in_blocks_match_one_block(monkeypatch, rows):
    """Slater states and rotations gather _MINOR_BYTES of N x N matrices at a time; a block of a few rows gives every
    amplitude to the bit, so the (10, 5) benchmark sizes, which fit in one block, keep the single det call's values."""
    m = np.random.default_rng(3).standard_normal((10, 5)) + 1j * np.random.default_rng(4).standard_normal((10, 5))
    state = random_state(7, 3, 5)
    u = haar_unitary(7, np.random.default_rng(6))
    whole = slater_from_orbitals(m).amplitudes, apply_local_unitary(state, u).amplitudes
    monkeypatch.setattr(states_module, "_MINOR_BYTES", rows * 16 * 5**2)
    blocked = slater_from_orbitals(m).amplitudes, apply_local_unitary(state, u).amplitudes
    assert [a.tobytes() for a in blocked] == [a.tobytes() for a in whole]


def test_unitary_application_preserves_norm():
    rng = np.random.default_rng(7)
    state = random_state(6, 3, 7)
    u = LocalUnitary(random_unitary(6, rng))
    rotated = apply_local_unitary(state, u)
    assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) <= 1e-10


def test_unitary_validation():
    with pytest.raises(NonUnitaryError):
        LocalUnitary(np.ones((3, 3)))
    with pytest.raises(NonUnitaryError):
        LocalUnitary(np.full((4, 4), np.nan))
    with pytest.raises(DimensionError):
        LocalUnitary(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        LocalUnitary(np.zeros((0, 0)))
    state = random_state(4, 2, 0)
    with pytest.raises(DimensionError):
        apply_local_unitary(state, LocalUnitary(np.eye(5)))


def test_random_generation_is_seed_deterministic():
    a = random_state(6, 3, 123)
    b = random_state(6, 3, 123)
    c = random_state(6, 3, 124)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    s1 = random_slater(6, 3, 123)
    s2 = random_slater(6, 3, 123)
    assert np.array_equal(s1.amplitudes, s2.amplitudes)


@pytest.mark.parametrize("d", range(1, 7))
def test_haar_unitary_is_a_seeded_local_unitary(d):
    u = haar_unitary(d, np.random.default_rng([d, 5]))
    assert isinstance(u, LocalUnitary)
    assert u.d == d
    assert np.array_equal(u.matrix, haar_unitary(d, np.random.default_rng([d, 5])).matrix)


@pytest.mark.parametrize("d", [0, -1])
def test_haar_unitary_refuses_an_empty_or_negative_dimension(d):
    with pytest.raises(DimensionError, match=f"got d={d}"):
        haar_unitary(d, np.random.default_rng(0))


@pytest.mark.parametrize("d, seed", [(1, 0), (4, 7), (6, 2**70), (10, np.random.SeedSequence([10, 3]))])
def test_haar_unitary_takes_its_seed_as_random_state_does(d, seed):
    """A Generator is drawn from as it always was, Q of two standard_normal draws; the seed it was made from gives
    the same matrix to the bit, and a value that is no seed, None among them, is refused."""
    rng = np.random.default_rng(seed)
    drawn = states_module._orthonormalize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    assert np.array_equal(haar_unitary(d, np.random.default_rng(seed)).matrix, drawn)
    assert np.array_equal(haar_unitary(d, seed).matrix, drawn)
    for refused in (None, -1, 1.5, True):
        with pytest.raises(DimensionError, match="seed must be a non-negative integer, a SeedSequence or a Generator"):
            haar_unitary(d, refused)


def test_basis_whose_ranks_pass_the_integer_range_is_refused():
    # C(70, 35) is about 1.1e20, past 2^63, so its ranks cannot be machine integers.
    with pytest.raises(DimensionError):
        OrbitalBasisIndex(70, 35)


@pytest.mark.parametrize(
    "call",
    [
        lambda: random_state(30, 9, 0),
        lambda: random_slater(30, 9, 0),
        lambda: from_coefficients(100000, 1, [((0,), 1.0)]),
        lambda: haar_unitary(100000, np.random.default_rng(0)),
    ],
    ids=["random-state", "random-slater", "coefficients", "haar"],
)
def test_a_basis_past_the_size_rule_is_refused_before_anything_is_allocated(call):
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="bytes to analyze|at most 2048"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_every_builder_refuses_a_basis_past_the_byte_budget(monkeypatch):
    # C(12, 5) = 792 states need about 260 KiB to analyze.
    monkeypatch.setattr(basis_module, "BYTE_BUDGET", 4096)
    text = '{"d": 12, "n": 5, "amplitudes": [{"orbitals": [0, 1, 2, 3, 4], "re": 1.0}]}'
    for call in (
        lambda: random_state(12, 5, 0),
        lambda: parse_state(text),
        lambda: from_coefficients(12, 5, [((0, 1, 2, 3, 4), 1.0)]),
    ):
        with pytest.raises(FermisepError, match="C\\(12, 5\\) basis states need more than 4096 bytes"):
            call()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_states_are_normalized(seed):
    state = random_state(6, 3, seed)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10


def test_state_file_round_trip(tmp_path):
    state = random_state(6, 3, 42)
    path = tmp_path / "state.json"
    save_state(state, path)
    loaded, norm = load_state(path)
    assert np.max(np.abs(loaded.amplitudes - state.amplitudes)) == 0.0
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_saved_text_matches_unranked_listing(tmp_path, monkeypatch):
    monkeypatch.setattr(states_module, "_WRITE_ROWS", 7)  # so that block seams fall inside the file
    state = random_state(12, 5, 8)
    sparse = state.amplitudes.copy()
    sparse[::3] = 0
    for s in (state, FermionState(state.basis, sparse)):
        listing = [
            {"orbitals": list(t), "re": float(v.real), "im": float(v.imag)}
            for t, v in zip(enumerated_tuples(12, 5), s.amplitudes)
            if v != 0
        ]
        save_state(s, tmp_path / "state.json")
        expected = render_json({"d": 12, "n": 5, "amplitudes": listing}) + "\n"
        assert (tmp_path / "state.json").read_text() == expected


def test_writer_holds_one_block_of_text_at_a_time(tmp_path):
    OrbitalBasisIndex(20, 5).tuples()  # cached with the basis, and counted in its size rule
    tracemalloc.start()
    try:
        save_state(random_state(20, 5, 0), tmp_path / "state.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_loader_reports_pre_normalization_norm():
    text = """{
      "d": 4, "n": 2,
      "amplitudes": [
        {"orbitals": [0, 1], "re": 2.0, "im": 0.0}
      ]
    }"""
    state, norm = parse_state(text)
    assert norm == pytest.approx(2.0)
    assert state.amplitude((0, 1)) == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_huge_and_tiny_amplitudes_keep_their_measures(scale):
    reference = analyze(from_coefficients(4, 2, [((0, 1), 1.0), ((2, 3), 1.0)]))
    text = (
        '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": %r}, {"orbitals": [2, 3], "re": %r}]}'
        % (scale, scale)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state, norm = parse_state(text)
        coefficients = from_coefficients(4, 2, [((0, 1), scale), ((2, 3), scale)])
    assert norm == pytest.approx(scale * np.sqrt(2), rel=1e-15)
    for s in (state, coefficients):
        report = analyze(s)
        assert report.purity == pytest.approx(reference.purity, abs=1e-15)
        assert report.entropy == pytest.approx(reference.entropy, abs=1e-15)


def test_loader_defaults_missing_parts_to_zero():
    text = '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "im": 1.0}]}'
    state, _ = parse_state(text)
    assert state.amplitude((0, 1)) == pytest.approx(1j)


def test_loader_diagnoses_bad_tuple_by_row():
    text = '{"d": 4, "n": 2,\n "amplitudes": [\n  {"orbitals": [0, 1], "re": 1.0, "im": 0.0},\n  {"orbitals": [3, 2], "re": 1.0, "im": 0.0}\n ]}'
    with pytest.raises(StateFormatError, match="^row 1: \\(3, 2\\) is not 2 strictly increasing") as err:
        parse_state(text)
    assert err.value.line is None
    for orbitals in ("[0, 1, 2]", "[0, 100000000000000000000]"):
        text = '{"d": 4, "n": 2, "amplitudes": [\n {"orbitals": [0, 1]},\n {"orbitals": %s}\n]}' % orbitals
        with pytest.raises(StateFormatError, match="^row 1: ") as err:
            parse_state(text)
        assert err.value.line is None
    # The row is the entry's index in the amplitudes array json.loads keeps: an entry that is not an object, one that
    # nests an orbitals key, and the last of two amplitudes keys.
    rows = {
        '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1]},\n5,\n{"orbitals": [0, 2]}]}': "5 is not an object",
        '{"d": 4, "n": 2, "amplitudes": [\n{"orbitals": [0, 1], "note": {"orbitals": 1}},\n{"orbitals": [1, 0]}\n]}': "(1, 0)",
        '{"amplitudes": [{"orbitals": [0, 1]}],\n"d": 4, "n": 2,\n"amplitudes": [{"orbitals": [0, 1]},\n[1, 0]]}': "[1, 0] is",
    }
    for text, shown in rows.items():
        with pytest.raises(StateFormatError, match="^row 1: ") as err:
            parse_state(text)
        assert shown in str(err.value)
        assert err.value.line is None


def test_loader_diagnoses_bad_number_by_row():
    for value in ("true", '"1"', "null", "[1.0]", "100000000000000000000"):
        text = '{"d": 4, "n": 2, "amplitudes": [\n {"orbitals": [0, 1], "re": 1.0},\n {"orbitals": [0, 2], "re": %s}\n]}'
        with pytest.raises(StateFormatError, match="^row 1: ") as err:
            parse_state(text % value)
        assert err.value.line is None


def test_loader_reads_each_number_as_complex_does():
    """Every bit of re and im reaches the state as complex(re, im) gives it, signed zeros included. Normalizing is
    complex division, which keeps the sign of a zero imaginary part beside a +0 real part, so the (0.0, -0.0) entry
    would come out with a +0 imaginary part had the parser summed re + 1j * im."""
    listed = [((0, 1), -0.0, -0.0), ((0, 2), 0.0, -0.0), ((1, 3), 0.6, -0.0), ((2, 3), 3, -0.8)]
    entries = ",".join(f'{{"orbitals": {list(t)}, "re": {re!r}, "im": {im!r}}}' for t, re, im in listed)
    state, _ = parse_state('{"d": 4, "n": 2, "amplitudes": [%s]}' % entries)
    expected = from_coefficients(4, 2, [(t, complex(re, im)) for t, re, im in listed])
    assert state.amplitudes.tobytes() == expected.amplitudes.tobytes()
    assert np.signbit(state.amplitude((0, 2)).imag)


def test_load_state_refuses_a_file_past_the_byte_budget_unread(monkeypatch, tmp_path):
    path = tmp_path / "state.json"
    path.write_text('{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": 1.0}]}')
    load_state(path)
    monkeypatch.setattr(basis_module, "BYTE_BUDGET", path.stat().st_size * states_module._READ_EXPANSION - 1)

    def unread(*args, **kwargs):
        raise AssertionError("the file was read")

    monkeypatch.setattr(type(path), "read_text", unread)
    start = time.perf_counter()
    with pytest.raises(StateFormatError, match=f"of {path.stat().st_size} bytes needs more than"):
        load_state(path)
    assert time.perf_counter() - start < 0.01


def test_load_state_refuses_a_file_of_bare_containers_undecoded(monkeypatch, tmp_path):
    """Entries {} decode to about 152 bytes each (7e6 of them in 20 MiB rose 1014 MiB before their refusal), far past
    24 times their size: the reader counts the objects and arrays first, and refuses such a file undecoded."""
    path = tmp_path / "state.json"
    path.write_text('{"d": 4, "n": 2, "amplitudes": [' + ", ".join(["{}"] * 10**5) + "]}")
    size = path.stat().st_size
    monkeypatch.setattr(basis_module, "BYTE_BUDGET", 30 * size)  # within the size rule alone

    def undecoded(*args, **kwargs):
        raise AssertionError("the file was decoded")

    monkeypatch.setattr(json, "loads", undecoded)
    with pytest.raises(StateFormatError, match=f"^a state file of {size} bytes and 100002 objects and arrays needs"):
        load_state(path)


def test_the_container_rule_admits_the_largest_state_file_written():
    # save_state(random_state(28, 7, 0)) writes 153 960 331 bytes with two containers per entry and the outer two:
    # 3.79 GiB by the rule, within the 4 GiB budget.
    assert 153_960_331 <= states_module._file_limit(2 * comb(28, 7) + 2)


def test_writer_refuses_a_file_the_reader_would_refuse(monkeypatch, tmp_path):
    state, path = random_state(12, 5, 0), tmp_path / "state.json"
    monkeypatch.setattr(basis_module, "BYTE_BUDGET", 2**20)
    with pytest.raises(StateFormatError, match="d=12, n=5 passes 33117 bytes, more than load_state reads"):
        save_state(state, path)
    assert not path.exists()
    monkeypatch.setattr(basis_module, "BYTE_BUDGET", 2**22)
    save_state(state, path)
    assert np.max(np.abs(load_state(path)[0].amplitudes - state.amplitudes)) <= 1e-15


def test_load_state_refuses_non_utf8_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_bytes(b"\xff\xfe" + '{"d": 2, "n": 1, "amplitudes": [{"orbitals": [0]}]}'.encode("utf-16-le"))
    with pytest.raises(StateFormatError, match="UTF-8"):
        load_state(path)


def test_loader_diagnoses_duplicates_and_syntax():
    dup = '{"d": 4, "n": 2, "amplitudes": [\n {"orbitals": [0, 1], "re": 1.0},\n {"orbitals": [0, 1], "re": 2.0}\n]}'
    with pytest.raises(StateFormatError, match="^row 1: tuple \\(0, 1\\) listed twice") as err:
        parse_state(dup)
    assert err.value.line is None

    with pytest.raises(StateFormatError, match="^line 3: invalid JSON") as err:
        parse_state('{"d": 4, "n": 2,\n "amplitudes": [\n  {"orbitals": [0, 1], "re": 1.0,}\n ]}')
    assert err.value.line == 3
    with pytest.raises(StateFormatError, match="top-level value must be an object"):
        parse_state("[1, 2]")
    with pytest.raises(StateFormatError):
        parse_state('{"d": 4, "n": 2}')
    with pytest.raises(StateFormatError):
        parse_state('{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1], "re": 0.0}]}')


@pytest.mark.parametrize("text", MALFORMED_STATES.values(), ids=MALFORMED_STATES.keys())
def test_loader_rejects_mistyped_and_oversized_input(text):
    with pytest.raises(StateFormatError):
        parse_state(text)


# Small state documents: well-typed ones, whose tuples and numbers may
# still be out of range, repeated or non-finite, and ones with any JSON value
# where a number, a tuple or an entry belongs.
json_values = st.none() | st.booleans() | st.integers(-2, 9) | st.just(10**20) | st.floats() | st.text(max_size=3)
numbers = st.floats() | st.integers(-3, 3)


def typed_documents(n: int):
    entry = st.fixed_dictionaries(
        {"orbitals": st.sets(st.integers(0, 5), min_size=n, max_size=n).map(sorted)},
        optional={"re": numbers, "im": numbers},
    )
    amplitudes = st.lists(entry, min_size=1, max_size=4)
    return st.fixed_dictionaries({"d": st.integers(n, 6), "n": st.just(n), "amplitudes": amplitudes})


any_entries = st.fixed_dictionaries(
    {"orbitals": st.lists(st.integers(-1, 6) | st.just(2**64), max_size=4) | json_values},
    optional={"re": numbers | st.just(10**400) | json_values, "im": json_values},
) | json_values
documents = (
    st.integers(1, 3).flatmap(typed_documents)
    | st.fixed_dictionaries(
        {"d": st.integers(1, 6), "n": st.integers(1, 3), "amplitudes": st.lists(any_entries, max_size=3)}
    )
    | st.dictionaries(st.sampled_from(["d", "n", "amplitudes"]), json_values | st.just(10**6))
)


@given(st.text(max_size=80) | documents.map(json.dumps))
@settings(max_examples=200, deadline=None)
def test_parser_parses_or_refuses_any_text(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state, norm = parse_state(text)
        except StateFormatError:
            return
    assert np.isfinite(norm) and norm > 0
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12


@pytest.mark.parametrize("call", MALFORMED_ARGUMENTS.values(), ids=MALFORMED_ARGUMENTS.keys())
def test_malformed_arguments_are_refused_without_a_warning(call):
    """Each call raises a FermisepError, with no warning and a message under 200 characters, whatever it echoes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FermisepError) as err:
            call()
    assert len(str(err.value)) < 200


def test_listings_given_as_iterators_are_refused_as_such():
    """A first look would use an iterator up, so it is refused, not read as an empty or partial listing."""
    for name in ("coefficients-generator", "ranks-generator"):
        with pytest.raises(DimensionError, match="got <generator"):
            MALFORMED_ARGUMENTS[name]()


def test_constructors_copy_and_leave_the_caller_array_writeable():
    basis = OrbitalBasisIndex(4, 2)
    for make, given in [
        (LocalUnitary, np.eye(3, dtype=complex)),
        (lambda c: FermionState(basis, c), np.full(6, 1 / 6**0.5, dtype=complex)),
        (lambda m: ReducedDensityMatrix(2, m), np.eye(2, dtype=complex) / 2),
        (Spectrum, np.array([0.5, 0.5])),
    ]:
        made = make(given)
        stored = next(v for v in vars(made).values() if isinstance(v, np.ndarray))
        assert given.flags.writeable
        assert not stored.flags.writeable
        assert not np.shares_memory(given, stored)


def test_arguments_of_every_accepted_kind_are_taken():
    basis = OrbitalBasisIndex(np.int64(4), np.uint8(2))
    assert (basis.d, basis.n) == (4, 2) and type(basis.d) is int and type(basis.n) is int
    for amplitudes in ([1, 0, 0, 0, 0, 2], np.arange(1.0, 7.0), np.arange(6, dtype=np.int32), [1j, 0.5, 2, 0, 0, 0]):
        state = FermionState(basis, amplitudes)
        assert state.amplitudes.dtype == np.complex128 and abs(np.linalg.norm(state.amplitudes) - 1) <= 1e-15
    assert abs(slater_from_orbitals([[1, 0, 0, 0], [0, 1, 0, 0]]).amplitude((0, 1))) == pytest.approx(1.0)
    for seed in (2**100, np.random.SeedSequence(7), np.int64(3)):
        assert random_state(np.int64(4), 2, seed).d == 4
    assert haar_unitary(np.int32(3), np.random.default_rng(0)).d == 3
    assert analyze(random_state(4, 2, 0), tolerance=1).tolerance == 1
