"""End-to-end command-line behavior: reports, ensembles, verification, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import fermisep
from conftest import MALFORMED_STATES
import fermisep.cli
from fermisep.cli import main
from fermisep.rdm import ReducedDensityMatrix, compute_rdm
from fermisep.reporting import load_report_schema


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


def test_analyze_malformed_tuple_diagnoses_line(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"d": 4, "n": 2, "amplitudes": [\n{"orbitals": [2, 1], "re": 1.0, "im": 0.0}\n]}'
    )
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "line 2" in err


def run_child(*argv):
    """`python -m fermisep ARGV` in a fresh interpreter, so a traceback shows on stderr."""
    src = str(Path(fermisep.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "fermisep", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


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
    "random-n-above-d": "random --d 3 --n 4 --out {out}",
    "random-slater-negative-d": "random --d -1 --n 1 --slater --out {out}",
    # Bases numpy refuses by arithmetic, before it allocates anything.
    "random-basis-too-large": "random --d 100000 --n 50000 --out {out}",
    "random-slater-basis-too-large": "random --d 60 --n 30 --slater --out {out}",
    "esbl-one-fermion": "esbl {one}",
    "analyze-non-utf8": "analyze {utf16}",
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


def test_verify_refuses_oversized_grid(capsys):
    code, _, err = run(capsys, "verify", "--d-max", "20")
    assert code == 2
    assert "cap" in err


def test_verify_detects_injected_corruption(capsys, monkeypatch):
    # A fast path that is off by 1e-9 in one diagonal entry must fail the
    # comparison against the dense oracle.
    def corrupted_rdm(state):
        rho = compute_rdm(state)
        entries = rho.entries.copy()
        entries[0, 0] += 1e-9
        return ReducedDensityMatrix(rho.dim, rho.n, entries)

    monkeypatch.setattr(fermisep.cli, "compute_rdm", corrupted_rdm)
    code, _, err = run(capsys, "verify", "--d-max", "4", "--n-max", "2", "--trials", "2")
    assert code == 1
    assert "fast/oracle marginals differ" in err


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


def test_esbl_rejects_zero_samples(capsys, fixtures_dir):
    code, _, err = run(capsys, "esbl", str(fixtures_dir / "split_triple.json"), "--samples", "0")
    assert code == 2
    assert "--samples" in err


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
