"""Tests of the benchmark itself: every workload end to end at a tiny size,
the checker catching corrupted results, the tracer, and the refusal to run
without sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import CliAnalyze, LargeAnalyze, RotateEsbl, report_fields  # noqa: E402

from fermisep import compute_rdm, random_slater, random_state  # noqa: E402

TINY = {
    "cli-analyze": lambda tmp: CliAnalyze(3, tmp, d=6, n=3, files_per_kind=1),
    "large-analyze": lambda tmp: LargeAnalyze(3, tmp, d=8, n=3, pool=2),
    "rotate-esbl": lambda tmp: RotateEsbl(3, tmp, d=6, n=3, pool=2, samples=4),
}


@pytest.fixture(autouse=True)
def child_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(SRC))


def run_tiny(name, tmp_path, ops=4):
    workload = TINY[name](tmp_path)
    workload.setup()
    times, outputs = worker.run_ops(workload, 0, lambda done: done >= ops)
    return workload, times, outputs


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_at_tiny_size(name, tmp_path):
    workload, times, outputs = run_tiny(name, tmp_path)
    assert len(times) == len(outputs) == 4
    assert all(o is not None for o in outputs)
    assert worker.check(workload, outputs) == 0


def test_reference_matches_program_on_random_states():
    for state in (random_state(7, 3, 1), random_slater(7, 3, 2)):
        ref = reference.Reference(state.d, state.n, state.amplitudes)
        assert np.max(np.abs(compute_rdm(state).entries - ref.rho)) < 1e-14


def test_checker_flags_one_perturbed_amplitude_in_the_reference(tmp_path):
    workload, _, outputs = run_tiny("large-analyze", tmp_path, ops=1)
    (i, [(rho, report), _]) = outputs[0]
    state = next(workload._states(i))[1]
    c = state.amplitudes.copy()
    c[1] *= 1 + 1e-6
    ref = reference.Reference(state.d, state.n, c)
    failures = reference.check_analysis(ref, report_fields(report), slater=False, rho=rho)
    assert any("rho differs" in f for f in failures)


def test_checker_flags_one_flipped_verdict(tmp_path):
    workload, _, outputs = run_tiny("large-analyze", tmp_path, ops=2)
    i, results = outputs[1]
    rho, report = results[0]
    results[0] = (rho, dataclasses.replace(report, verdict_purity=not report.verdict_purity))
    assert [bool(f) for f in workload.check(outputs)] == [False, True]
    assert worker.check(workload, outputs) == 1


def test_checker_flags_a_corrupted_rotation_and_projection_verdict(tmp_path):
    workload, _, outputs = run_tiny("rotate-esbl", tmp_path, ops=2)
    i, amplitudes, before, after, esbl = outputs[0]
    bent = amplitudes.copy()
    bent[0] += 1e-3
    outputs[0] = (i, bent, before, after, esbl)
    outputs[1] = (*outputs[1][:4], not outputs[1][4])
    failures = workload.check(outputs)
    assert any("rotation" in f for f in failures[0])
    assert any("esbl_check" in f for f in failures[1])


def test_cli_check_flags_a_report_that_breaks_the_schema(tmp_path):
    workload, _, outputs = run_tiny("cli-analyze", tmp_path, ops=2)
    i, code, stdout, stderr = outputs[0]
    outputs[0] = (i, code, stdout.replace('"timings"', '"timing"'), stderr)
    assert [bool(f) for f in workload.check(outputs)] == [True, False]


def test_tracer_records_layers_and_restores_the_library(tmp_path):
    import fermisep.states

    original = fermisep.states.apply_local_unitary
    workload = TINY["rotate-esbl"](tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    workload.setup()
    tracer.op = 0
    worker.run_ops(workload, 0, lambda done: done >= 2)
    tracer.uninstall()
    assert fermisep.states.apply_local_unitary is original
    layers = tracing.layer_metrics(tracer, None, 2)
    assert layers["states.apply_local_unitary_calls"] == 1.0
    assert layers["separability.analyze_calls"] == 2.0
    assert layers["spectral.eigh_calls"] == 1.0
    assert layers["separability.esbl_check_ms"] > 0
    # esbl_check's own compute_rdm calls, on projected states, are left out.
    assert layers["rdm.compute_rdm_warm_calls"] == 2.0
    assert layers["rdm.compute_rdm_cold_ms"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "rotate-esbl", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout == ""



def test_traced_cli_children_record_spans_only_when_asked(tmp_path):
    workload = TINY["cli-analyze"](tmp_path)
    workload.spans_dir = tmp_path / "spans"
    workload.spans_dir.mkdir()
    workload.setup()
    workload.record_spans = True
    _, recorded = worker.run_ops(workload, 0, lambda done: done > 0)
    workload.record_spans = False
    _, plain = worker.run_ops(workload, 2, lambda done: done > 0)
    assert worker.check(workload, recorded + plain) == 0
    assert sorted(p.name for p in workload.spans_dir.iterdir()) == ["op-0.json", "op-1.json"]
    layers = tracing.layer_metrics(tracing.Tracer(), workload.spans_dir, 2)
    assert layers["cli.import_calls"] == 1.0
    assert layers["states.load_state_calls"] == 1.0
