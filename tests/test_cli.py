"""End-to-end command-line behavior: reports, ensembles, verification, sweeps, exit codes."""

import csv
import dataclasses
import json
import math

import jsonschema
import numpy as np
import pytest

from conftest import MALFORMED_STATES, run_python
import fermisep.cli
from fermisep.cli import main
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.reporting import load_report_schema
from fermisep.separability import EsblResult, analyze, esbl_check
from fermisep.states import load_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_separable_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "localized_pair.json"))
    assert code == 0
    assert "result              separable" in out


def test_analyze_entangled_fixture_json(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "superposed_pair.json"), "--json")
    assert code == 0
    record = json.loads(out)
    jsonschema.validate(record, load_report_schema())
    assert record["e_l"] == pytest.approx(0.25, abs=1e-12)
    assert record["e_vn"] == pytest.approx(math.log(2), abs=1e-12)
    assert record["verdicts"]["separable"] is False
    assert all(ms >= 0 for ms in record["timings"].values())


def test_analyze_csv_output(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "superposed_pair.json"), "--csv")
    assert code == 0
    header, row = out.splitlines()
    assert header.startswith("input,d,n,input_norm,purity,entropy_nats,e_l,e_vn")
    assert row.split(",")[1:3] == ["4", "2"]


def test_analyze_bits_display(capsys, fixtures_dir):
    code, out, _ = run(capsys, "analyze", str(fixtures_dir / "superposed_pair.json"), "--bits")
    assert code == 0
    assert "entropy (bits)      2" in out


def test_analyze_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path / "nope.json"))
    assert code == 3
    assert "error" in err


def test_analyze_malformed_tuple_diagnoses_row(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"d": 4, "n": 2, "amplitudes": [\n{"orbitals": [2, 1], "re": 1.0, "im": 0.0}\n]}'
    )
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error: row 0: (2, 1) is not 2 strictly increasing")
    bad.write_text('{"d": 4, "n": 2, "amplitudes": [\n{"orbitals": [1, 2], "re": 1.0,}\n]}')
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error: line 2: invalid JSON")


def run_child(*argv):
    """`python -m fermisep ARGV` in a fresh interpreter, so a traceback shows on stderr."""
    return run_python("-m", "fermisep", *argv)


@pytest.mark.parametrize("text", MALFORMED_STATES.values(), ids=MALFORMED_STATES.keys())
def test_analyze_malformed_input_exits_2_without_traceback(tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    done = run_child("analyze", str(bad))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ")


# Refused invocations; {pair}, {one} and {utf16} name a two-fermion fixture,
# a one-fermion state file and a UTF-16 file, {out} a directory not yet made.
REFUSED_CALLS = {
    "tolerance-nan": "analyze {pair} --tolerance nan",
    "tolerance-inf": "analyze {pair} --tolerance inf",
    "tolerance-1e400": "analyze {pair} --tolerance 1e400",
    "tolerance-0": "analyze {pair} --tolerance 0",
    "tolerance-negative": "analyze {pair} --tolerance -1",
    "random-negative-seed": "random --d 4 --n 2 --seed -1 --out {out}",
    "verify-negative-seed": "verify --d-max 3 --n-max 2 --seed -1",
    "esbl-negative-seed": "esbl {pair} --seed -1",
    "random-zero-count": "random --d 4 --n 2 --count 0 --out {out}",
    "verify-zero-trials": "verify --d-max 3 --n-max 2 --trials 0",
    "verify-n-max-past-printable-size": "verify --n-max 6000 --d-max 6000",
    "esbl-zero-samples": "esbl {pair} --samples 0",
    "random-n-above-d": "random --d 3 --n 4 --out {out}",
    "random-slater-negative-d": "random --d -1 --n 1 --slater --out {out}",
    # Bases refused by OrbitalBasisIndex before anything is allocated: d above
    # 2048, without working out C(d, n) (which takes hours for the third), or
    # past the byte budget (the last two; C(30, 9) = 14.3M states need about
    # 7.5 GiB to analyze).
    "random-d-past-state-file-limit": "random --d 2049 --n 1 --out {out}",
    "random-basis-too-large": "random --d 100000 --n 50000 --out {out}",
    "random-basis-too-large-to-count": "random --d 1000000000 --n 500000000 --out {out}",
    "random-slater-basis-too-large": "random --d 60 --n 30 --slater --out {out}",
    "random-basis-past-byte-budget": "random --d 30 --n 9 --out {out}",
    "esbl-one-fermion": "esbl {one}",
    "analyze-non-utf8": "analyze {utf16}",
    "random-non-integer-seed": "random --d 4 --n 2 --seed abc --out {out}",
    "measure-sweep-negative-seed": "measure-sweep --seed -1 --out {out}",
    "measure-sweep-zero-count": "measure-sweep --count 0 --out {out}",
    "measure-sweep-zero-tolerance": "measure-sweep --tolerance 0 --out {out}",
    "projection-sweep-negative-seed": "projection-sweep --seed -1 --out {out}",
    "projection-sweep-zero-samples": "projection-sweep --samples 0 --out {out}",
    "projection-sweep-zero-states": "projection-sweep --states 0 --out {out}",
    # Refused by the library once --out is open, which the sweep then removes.
    "projection-sweep-n-above-d": "projection-sweep --d 3 --n 4 --out {out}",
    "projection-sweep-one-fermion": "projection-sweep --d 3 --n 1 --out {out}",
    # The tolerance rule holds on a grid with no cell.
    "measure-sweep-empty-grid-zero-tolerance": "measure-sweep --n-max 1 --tolerance 0 --out {out}",
    # Flag prefixes are not expanded: `--d` is not `--d-max`, `--trial` is not `--trials`.
    "measure-sweep-abbreviated-flag": "measure-sweep --d 4 --out {out}",
    "verify-abbreviated-flag": "verify --trial 2",
}


@pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
def test_refused_call_exits_2_without_traceback(tmp_path, fixtures_dir, call):
    one = tmp_path / "one.json"
    one.write_text('{"d": 3, "n": 1, "amplitudes": [{"orbitals": [0], "re": 1.0}]}')
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + one.read_text().encode("utf-16-le"))
    out = tmp_path / "out"
    paths = {"pair": fixtures_dir / "localized_pair.json", "one": one, "utf16": utf16, "out": out}
    done = run_child(*(arg.format(**paths) for arg in call.split()))
    assert done.returncode == 2
    assert "error" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


def test_lack_of_memory_exits_2_with_an_error_line(capsys, monkeypatch, fixtures_dir):
    def exhausted(state):
        raise MemoryError()

    monkeypatch.setattr(fermisep.cli, "compute_rdm", exhausted)
    code, _, err = run(capsys, "analyze", str(fixtures_dir / "localized_pair.json"))
    assert code == 2
    assert err == "error: out of memory\n"


def test_analyze_rejects_bad_tolerance(capsys, fixtures_dir):
    code, _, err = run(capsys, "analyze", str(fixtures_dir / "localized_pair.json"), "--tolerance", "0")
    assert code == 2
    assert "tolerance" in err


def test_random_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "random", "--d", "6", "--n", "3", "--seed", "11", "--count", "3", "--out", str(a))[0] == 0
    assert run(capsys, "random", "--d", "6", "--n", "3", "--seed", "11", "--count", "3", "--out", str(b))[0] == 0
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b and len(names_a) == 3
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_seed_children_are_made_as_they_are_used(capsys, monkeypatch, fixtures_dir, tmp_path):
    # No list of --count files' or samples' children is built up front: with
    # SeedSequence.spawn unusable, the files and the esbl result are unchanged.
    split, _ = load_state(fixtures_dir / "split_triple.json")
    argv = ["random", "--d", "6", "--n", "3", "--seed", "11", "--count", "3", "--out"]

    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError(f"spawn({n_children})")

    outputs = []
    for seed_sequence in (np.random.SeedSequence, NoSpawn):
        monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
        out = tmp_path / seed_sequence.__name__
        assert run(capsys, *argv, str(out))[0] == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        outputs.append((files, esbl_check(split, samples=4, seed=5)))
    assert len(outputs[0][0]) == 3
    assert outputs[0] == outputs[1]


def test_random_slater_analyzes_separable(capsys, tmp_path):
    code, out, _ = run(capsys, "random", "--d", "8", "--n", "3", "--slater", "--seed", "7", "--out", str(tmp_path))
    assert code == 0
    path = out.strip()
    code, out, _ = run(capsys, "analyze", path, "--json")
    assert code == 0
    record = json.loads(out)
    assert record["e_l"] <= 1e-10
    assert record["verdicts"]["separable"] is True


def test_random_rejects_impossible_dimensions(capsys, tmp_path):
    code, _, err = run(capsys, "random", "--d", "3", "--n", "4", "--out", str(tmp_path))
    assert code == 2
    assert "n <= d" in err


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "--d-max", "5", "--n-max", "3", "--trials", "4")
    assert code == 0
    assert "all checks passed" in out


def test_verify_default_grid_passes(capsys):
    # d <= 6, n <= 5, 20 trials per cell: the grid the fast path is held to.
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "all checks passed" in out


def test_verify_sizes_the_cap_on_the_largest_cell_of_its_grid(capsys):
    # Every cell has n <= d, so the largest tensor is 4^4, not 4^12; nor does
    # the grid walk n past d, which would never end at n = 10^18.
    tables = set()
    for n_max in ("4", "12", "1000000000000000000"):
        code, out, _ = run(capsys, "verify", "--d-max", "4", "--n-max", n_max, "--trials", "1")
        assert code == 0
        assert "all checks passed" in out
        tables.add(out)
    assert len(tables) == 1


def test_verify_refuses_oversized_grid(capsys):
    code, _, err = run(capsys, "verify", "--d-max", "20")
    assert code == 2
    assert "cap" in err


def verify_with(capsys, monkeypatch, change):
    """`verify` on a small grid with every report r of an n-fermion state replaced by r with change(r, n)."""

    def changed_analyze(state, rdm):
        report = analyze(state, rdm=rdm)
        return dataclasses.replace(report, **change(report, state.n))

    monkeypatch.setattr(fermisep.cli, "analyze", changed_analyze)
    return run(capsys, "verify", "--d-max", "4", "--n-max", "3", "--trials", "2")


def test_verify_accepts_the_verdict_disagreement_the_nesting_allows(capsys, monkeypatch):
    # Purity-entangled and idempotency-separable can happen near the tolerance.
    code, out, _ = verify_with(capsys, monkeypatch, lambda r, n: {"verdict_purity": False, "verdict_idempotency": True})
    assert code == 0
    assert "all checks passed" in out


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda r, n: {"idempotency_defect": r.e_l + 1e-9}, "idempotency defect - e_l"),
        (lambda r, n: {"e_vn": n * r.e_l - 1e-9}, "n * e_l - e_vn"),
    ],
    ids=["defect-above-e_l", "e_vn-below-n-e_l"],
)
def test_verify_fails_a_report_that_breaks_a_nesting_bound(capsys, monkeypatch, change, message):
    code, _, err = verify_with(capsys, monkeypatch, change)
    assert code == 1
    assert message in err


@pytest.mark.parametrize(
    "field, check",
    [
        ("purity", "purity - 1/n"),
        ("entropy", "ln n - entropy"),
        ("e_l", "idempotency defect - e_l"),
        ("e_vn", "n * e_l - e_vn"),
        ("idempotency_defect", "idempotency defect - e_l"),
    ],
)
def test_verify_fails_a_nan_measure(capsys, monkeypatch, field, check):
    code, _, err = verify_with(capsys, monkeypatch, lambda r, n: {field: math.nan})
    assert code == 1
    assert f"{check} is nan, not <= " in err


def test_verify_refuses_a_grid_without_cells(capsys):
    for flag in ("--n-max", "--d-max"):
        assert run(capsys, "verify", flag, "1") == (2, "", "error: need --n-max >= 2, --d-max >= 2\n")


def test_verify_detects_injected_corruption(capsys, monkeypatch):
    # A fast path that is off by 1e-9 in one diagonal entry must fail the
    # comparison against the dense oracle.
    def corrupted_rdm(state):
        rho = compute_rdm(state)
        entries = rho.entries.copy()
        entries[0, 0] += 1e-9
        return ReducedDensityMatrix(rho.n, entries)

    monkeypatch.setattr(fermisep.cli, "compute_rdm", corrupted_rdm)
    code, _, err = run(capsys, "verify", "--d-max", "4", "--n-max", "2", "--trials", "2")
    assert code == 1
    assert "fast/oracle marginal difference" in err


def test_analyze_exits_4_on_a_marginal_with_a_negative_eigenvalue(capsys, monkeypatch, fixtures_dir):
    # Shifting the spectrum by -1e-6 leaves the marginal Hermitian, but its
    # zero eigenvalues fall below the -1e-8 noise threshold.
    def shifted_rdm(state):
        rho = compute_rdm(state)
        return ReducedDensityMatrix(rho.n, rho.entries - 1e-6 * np.eye(state.d))

    monkeypatch.setattr(fermisep.cli, "compute_rdm", shifted_rdm)
    code, out, err = run(capsys, "analyze", str(fixtures_dir / "localized_pair.json"))
    assert code == 4
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_esbl_agreement_on_fixtures(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(capsys, "esbl", str(fixtures_dir / "split_triple.json"), "--samples", "8")
    assert code == 0
    assert "projection verdict   entangled" in out
    assert "purity verdict       entangled" in out

    run(capsys, "random", "--d", "6", "--n", "3", "--slater", "--seed", "2", "--out", str(tmp_path))
    slater = next(tmp_path.glob("*.json"))
    code, out, _ = run(capsys, "esbl", str(slater), "--samples", "8")
    assert code == 0
    assert "verdicts agree" in out


def test_esbl_exits_1_when_the_verdicts_disagree(capsys, monkeypatch, fixtures_dir):
    # split_triple.json is entangled; a projection check that calls it separable disagrees.
    monkeypatch.setattr(fermisep.cli, "esbl_check", lambda state, samples, seed: EsblResult(True, ()))
    code, out, err = run(capsys, "esbl", str(fixtures_dir / "split_triple.json"))
    assert code == 1
    assert "purity verdict       entangled" in out
    assert err == "verdicts disagree\n"


def test_esbl_rejects_zero_samples(capsys, fixtures_dir):
    with pytest.raises(SystemExit) as exc:
        main(["esbl", str(fixtures_dir / "split_triple.json"), "--samples", "0"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def read_csv(path):
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        return reader.fieldnames, list(reader)


def test_measure_sweep_writes_one_row_per_state(capsys, tmp_path):
    out = tmp_path / "measure.csv"
    code, stdout, _ = run(capsys, "measure-sweep", "--n-max", "3", "--d-max", "4", "--count", "2", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == fermisep.cli.MEASURE_FIELDS
    # Cells (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), two kinds, two states each.
    assert len(rows) == 5 * 2 * 2
    assert all(r["separable"] == "true" for r in rows if r["kind"] == "slater")
    lines = stdout.splitlines()
    assert lines[0].split() == ["kind", "n", "d", "mean", "e_l", "max", "e_l", "separable"]
    assert len(lines) == 1 + 5 * 2 + 1
    assert lines[-1] == f"wrote 20 rows to {out}"


def test_projection_sweep_writes_one_row_per_state_and_count(capsys, tmp_path):
    out = tmp_path / "projection.csv"
    argv = ["--d", "5", "--n", "3", "--states", "4", "--samples", "1", "2", "--out", str(out)]
    code, stdout, _ = run(capsys, "projection-sweep", *argv)
    assert code == 0
    header, rows = read_csv(out)
    assert header == fermisep.cli.PROJECTION_FIELDS
    assert len(rows) == 4 * 2
    assert all(r["agrees"] == "true" for r in rows)
    assert stdout.splitlines()[-1] == f"wrote 8 rows to {out}"


def test_projection_sweep_counts_null_chains(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(fermisep.separability, "project_single_particle", lambda state, direction: (None, 0.0))
    out = tmp_path / "projection.csv"
    argv = ["--d", "5", "--n", "3", "--states", "2", "--samples", "1", "3", "--out", str(out)]
    assert run(capsys, "projection-sweep", *argv)[0] == 0
    _, rows = read_csv(out)
    assert [(r["samples"], r["null_chains"]) for r in rows] == [("1", "1"), ("3", "3")] * 2


def test_measure_sweep_empty_grid_writes_the_header_only(capsys, tmp_path):
    out = tmp_path / "measure.csv"
    assert run(capsys, "measure-sweep", "--n-max", "1", "--out", str(out))[0] == 0
    assert out.read_bytes() == (",".join(fermisep.cli.MEASURE_FIELDS) + "\n").encode()


def test_measure_sweep_refuses_a_d_max_past_the_basis_limit_before_opening_its_out(capsys, tmp_path):
    out = tmp_path / "measure.csv"
    argv = ["--d-max", "100000000", "--n-max", "2", "--count", "1", "--out", str(out)]
    assert run(capsys, "measure-sweep", *argv) == (2, "", "error: d must be at most 2048, got d=100000000\n")
    assert not out.exists()


SMALL_SWEEPS = {
    "measure": "measure-sweep --n-max 2 --d-max 2 --count 1",
    "projection": "projection-sweep --states 1 --samples 1",
}


@pytest.mark.parametrize("call", SMALL_SWEEPS.values(), ids=SMALL_SWEEPS.keys())
def test_sweep_to_an_unwritable_out_exits_3_without_traceback(tmp_path, call):
    done = run_child(*call.split(), "--out", tmp_path / "missing" / "out.csv")
    assert done.returncode == 3
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("call", SMALL_SWEEPS.values(), ids=SMALL_SWEEPS.keys())
def test_sweep_opens_its_out_before_drawing_a_state(capsys, monkeypatch, tmp_path, call):
    def unreachable(*args):
        raise AssertionError("a state was drawn before --out was opened")

    monkeypatch.setattr(fermisep.cli, "random_state", unreachable)
    monkeypatch.setattr(fermisep.cli, "random_slater", unreachable)
    code, out, err = run(capsys, *call.split(), "--out", str(tmp_path / "missing" / "out.csv"))
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err
