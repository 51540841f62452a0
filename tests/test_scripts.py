"""Smoke runs of the experiment scripts on tiny grids."""

import csv
from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts(monkeypatch):
    # The scripts are not a package: import them from their directory, as running them directly does.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import measure_sweep
    import projection_sweep

    return measure_sweep, projection_sweep


def read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with path.open(newline="") as handle:
        reader = csv.DictReader(handle)
        return reader.fieldnames, list(reader)


def test_measure_sweep_writes_one_row_per_state(scripts, tmp_path):
    measure_sweep, _ = scripts
    out = tmp_path / "measure.csv"
    assert measure_sweep.main(["--n-max", "3", "--d-max", "4", "--count", "2", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == measure_sweep.FIELDS
    # Cells (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), two kinds, two states each.
    assert len(rows) == 5 * 2 * 2
    assert all(r["separable"] == "true" for r in rows if r["kind"] == "slater")


def test_projection_sweep_writes_one_row_per_state_and_count(scripts, tmp_path):
    _, projection_sweep = scripts
    out = tmp_path / "projection.csv"
    argv = ["--d", "5", "--n", "3", "--states", "4", "--samples", "1", "2", "--out", str(out)]
    assert projection_sweep.main(argv) == 0
    header, rows = read_csv(out)
    assert header == projection_sweep.FIELDS
    assert len(rows) == 4 * 2
    assert all(r["agrees"] == "true" for r in rows)


def test_measure_sweep_empty_grid_writes_the_header_only(scripts, tmp_path):
    measure_sweep, _ = scripts
    out = tmp_path / "measure.csv"
    assert measure_sweep.main(["--n-max", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == (",".join(measure_sweep.FIELDS) + "\n").encode()


REFUSED_CALLS = {
    "measure-negative-seed": "measure_sweep.py --seed -1",
    "measure-zero-count": "measure_sweep.py --count 0",
    "measure-zero-tolerance": "measure_sweep.py --tolerance 0",
    "projection-negative-seed": "projection_sweep.py --seed -1",
    "projection-zero-samples": "projection_sweep.py --samples 0",
    "projection-zero-states": "projection_sweep.py --states 0",
}


@pytest.mark.parametrize("call", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
def test_refused_arguments_exit_2_without_traceback(tmp_path, call):
    script, *argv = call.split()
    out = tmp_path / "out.csv"
    done = run_python(SCRIPTS / script, *argv, "--out", out)
    assert done.returncode == 2
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


SMALL_CALLS = {
    "measure": "measure_sweep.py --n-max 2 --d-max 2 --count 1",
    "projection": "projection_sweep.py --states 1 --samples 1",
}


@pytest.mark.parametrize("call", SMALL_CALLS.values(), ids=SMALL_CALLS.keys())
def test_unwritable_out_exits_3_without_traceback(tmp_path, call):
    script, *argv = call.split()
    done = run_python(SCRIPTS / script, *argv, "--out", tmp_path / "missing" / "out.csv")
    assert done.returncode == 3
    assert "error:" in done.stderr
    assert "Traceback" not in done.stderr
