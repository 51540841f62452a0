"""Construction, normalization, transformation, and file round-trips of states."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_STATES, enumerated_tuples, random_unitary, reference_exterior_power
from fermisep.errors import (
    DegenerateOrbitalsError,
    DimensionError,
    DuplicateEntryError,
    NonUnitaryError,
    StateFormatError,
    ZeroStateError,
)
from fermisep.rdm import compute_rdm
from fermisep.reporting import render_json
from fermisep.separability import analyze
from fermisep.spectral import purity
from fermisep.states import (
    FermionState,
    LocalUnitary,
    apply_local_unitary,
    from_coefficients,
    load_state,
    parse_state,
    random_slater,
    random_state,
    save_state,
    slater_from_orbitals,
    state_document,
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


def test_state_document_matches_unranked_listing():
    state = random_state(12, 5, 8)
    sparse = state.amplitudes.copy()
    sparse[::3] = 0
    for s in (state, FermionState(state.basis, sparse)):
        expected = [
            {"orbitals": list(t), "re": float(v.real), "im": float(v.imag)}
            for t, v in zip(enumerated_tuples(12, 5), s.amplitudes)
            if v != 0
        ]
        doc = {"d": 12, "n": 5, "amplitudes": expected}
        assert render_json(state_document(s)) == render_json(doc)


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


def test_loader_diagnoses_bad_tuple_with_line():
    text = '{"d": 4, "n": 2,\n "amplitudes": [\n  {"orbitals": [0, 1], "re": 1.0, "im": 0.0},\n  {"orbitals": [3, 2], "re": 1.0, "im": 0.0}\n ]}'
    with pytest.raises(StateFormatError) as err:
        parse_state(text)
    assert err.value.line == 4
    assert "strictly increasing" in str(err.value)
    for orbitals in ("[0, 1, 2]", "[0, 100000000000000000000]"):
        text = '{"d": 4, "n": 2, "amplitudes": [\n {"orbitals": [0, 1]},\n {"orbitals": %s}\n]}' % orbitals
        with pytest.raises(StateFormatError, match="row 1: ") as err:
            parse_state(text)
        assert err.value.line == 3
    # The line comes from decoding, not from counting "orbitals": an entry
    # without that key, one that nests it, and a repeated amplitudes key.
    located = {
        '{"d": 4, "n": 2, "amplitudes": [{"orbitals": [0, 1]},\n5,\n{"orbitals": [0, 2]}]}': 2,
        '{"d": 4, "n": 2, "amplitudes": [\n{"orbitals": [0, 1], "note": {"orbitals": 1}},\n{"orbitals": [1, 0]}\n]}': 3,
        '{"amplitudes": [{"orbitals": [0, 1]}],\n"d": 4, "n": 2,\n"amplitudes": [{"orbitals": [0, 1]},\n[1, 0]]}': 4,
    }
    for text, line in located.items():
        with pytest.raises(StateFormatError, match="entry 1|row 1") as err:
            parse_state(text)
        assert err.value.line == line


def test_load_state_refuses_non_utf8_file(tmp_path):
    path = tmp_path / "state.json"
    path.write_bytes(b"\xff\xfe" + '{"d": 2, "n": 1, "amplitudes": [{"orbitals": [0]}]}'.encode("utf-16-le"))
    with pytest.raises(StateFormatError, match="UTF-8"):
        load_state(path)


def test_loader_diagnoses_duplicates_and_syntax():
    dup = '{"d": 4, "n": 2, "amplitudes": [\n {"orbitals": [0, 1], "re": 1.0},\n {"orbitals": [0, 1], "re": 2.0}\n]}'
    with pytest.raises(StateFormatError) as err:
        parse_state(dup)
    assert err.value.line == 3

    with pytest.raises(StateFormatError):
        parse_state("{not json")
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
