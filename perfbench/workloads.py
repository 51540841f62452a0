"""The benchmark workloads: inputs, one timed operation, output checks.

Each workload runs one kind of operation at one size, so that its timings
form a single population. Inputs come from the workload seed alone. An
operation returns its outputs; ``check`` compares them with the independent
reference after the timed loop and returns the failure messages of each
operation. Library calls go through module attributes, so that spans
installed by the tracer see them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from fermisep import rdm, separability, states

import reference

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60


def report_fields(rep) -> dict:
    """The fields of a SeparabilityReport that the checks read."""
    return {
        "purity": rep.purity,
        "entropy_nats": rep.entropy,
        "e_l": rep.e_l,
        "e_vn": rep.e_vn,
        "verdicts": {
            "purity": rep.verdict_purity,
            "entropy": rep.verdict_entropy,
            "idempotency": rep.verdict_idempotency,
            "separable": rep.separable,
        },
    }


class Workload:
    """What worker.py needs of a workload besides setup(), op(i) and check()."""

    name: str
    round_size = 1  # operations per round; a run makes whole rounds
    min_seconds = 0.0  # a measured run lasts at least this, whatever --seconds says
    trace_ops = 20  # traced operations in a traced run, and as many untraced
    # Set by a traced run: the directory where child processes write their
    # spans, and whether the next operations record spans at all.
    spans_dir: Path | None = None
    record_spans = False


class CliAnalyze(Workload):
    """One ``fermisep analyze --json FILE`` child process per operation.

    Setup writes half Haar-random and half Slater state files of one size
    with ``fermisep random``; operations alternate between the two kinds.
    In a traced run every child goes through traced_cli.py, which records
    spans only while ``record_spans`` is set, so that traced and untraced
    children differ in the tracer alone.
    """

    name = "cli-analyze"
    round_size = 2
    trace_ops = 10

    def __init__(self, seed: int, workdir: Path, d: int = 12, n: int = 5, files_per_kind: int = 4):
        self.seed, self.workdir, self.d, self.n = seed, workdir, d, n
        self.files_per_kind = files_per_kind
        self.files: list[tuple[Path, bool]] = []

    def _fermisep(self, label: str) -> list[str]:
        if self.spans_dir is None:
            return [sys.executable, "-m", "fermisep"]
        spans = str(self.spans_dir / f"{label}.json") if self.record_spans else "-"
        return [sys.executable, str(HERE / "traced_cli.py"), spans]

    def setup(self) -> None:
        for slater in (False, True):
            args = ["random", "--d", str(self.d), "--n", str(self.n), "--seed", str(self.seed),
                    "--count", str(self.files_per_kind), "--out", str(self.workdir)]
            label = "setup-slater" if slater else "setup-random"
            done = subprocess.run(self._fermisep(label) + args + (["--slater"] if slater else []),
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
            if done.returncode != 0:
                raise RuntimeError(f"fermisep random failed: {done.stderr.strip()}")
        haar = sorted(self.workdir.glob("state-*.json"))
        slater = sorted(self.workdir.glob("slater-*.json"))
        if len(haar) != self.files_per_kind or len(slater) != self.files_per_kind:
            raise RuntimeError(f"fermisep random wrote {len(haar)} + {len(slater)} files")
        self.files = [f for pair in zip(haar, slater) for f in ((pair[0], False), (pair[1], True))]
        self.op(-1)

    def op(self, i: int):
        path, _ = self.files[i % len(self.files)]
        label = f"op-{i}" if i >= 0 else f"setup-op{i}"
        done = subprocess.run(self._fermisep(label) + ["analyze", "--json", str(path)],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        return i, done.returncode, done.stdout, done.stderr[-500:]

    def check(self, outputs) -> list[list[str]]:
        schema = json.loads((HERE.parent / "src/fermisep/schemas/report.schema.json").read_text())
        refs = {}
        for path, _ in self.files:
            d, n, c, norm = reference.amplitudes_from_document(json.loads(path.read_text()))
            refs[path] = (reference.Reference(d, n, c), norm)
        failures = []
        for i, code, stdout, stderr in outputs:
            path, slater = self.files[i % len(self.files)]
            if code != 0:
                failures.append([f"{path.name}: exit code {code}: {stderr.strip()}"])
                continue
            record, bad = reference.check_report_json(stdout, schema)
            if record is not None and not bad:
                ref, norm = refs[path]
                if (record["d"], record["n"]) != (ref.d, ref.n):
                    bad.append(f"d, n = {record['d']}, {record['n']}, file has {ref.d}, {ref.n}")
                bad += reference.compare("input_norm", record["input_norm"], norm, 1e-12 * norm)
                bad += reference.check_analysis(ref, record, slater=slater)
            failures.append([f"{path.name}: {msg}" for msg in bad])
        return failures


class LargeAnalyze(Workload):
    """One Haar-random and one Slater state at d=20, n=5 (C=15504) per operation.

    Both are built through library calls, then each gets compute_rdm and
    analyze(rdm=...). Operations cycle over ``pool`` seeds per kind, so the
    check rebuilds few inputs. Setup runs the first operation, which builds
    the table cold.
    """

    name = "large-analyze"
    trace_ops = 10

    def __init__(self, seed: int, workdir: Path, d: int = 20, n: int = 5, pool: int = 8):
        self.seed, self.d, self.n, self.pool = seed, d, n, pool

    def _states(self, i: int):
        k = i % self.pool
        yield False, states.random_state(self.d, self.n, np.random.SeedSequence([self.seed, 0, k]))
        yield True, states.random_slater(self.d, self.n, np.random.SeedSequence([self.seed, 1, k]))

    def setup(self) -> None:
        self.op(0)

    def op(self, i: int):
        out = []
        for _, state in self._states(i):
            rho = rdm.compute_rdm(state)
            out.append((rho.entries, separability.analyze(state, rdm=rho)))
        return i, out

    def check(self, outputs) -> list[list[str]]:
        refs = {}
        failures = []
        for i, results in outputs:
            k = i % self.pool
            if k not in refs:
                refs[k] = [(slater, reference.Reference(self.d, self.n, s.amplitudes)) for slater, s in self._states(i)]
            bad = []
            for (slater, ref), (rho, rep) in zip(refs[k], results, strict=True):
                bad += reference.check_analysis(ref, report_fields(rep), slater=slater, rho=rho)
            failures.append(bad)
        return failures


class RotateEsbl(Workload):
    """Rotation and projection check at d=10, n=5 (C=252).

    Setup draws ``pool`` states, alternately Haar-random and Slater. One
    operation takes the next one, draws a haar_unitary, applies it, analyses
    the state before and after, and runs esbl_check with 16 samples on the
    rotated state. A measured run lasts at least 30 s, so that it spans
    many of the few-second stretches in which the machine's speed changes.
    """

    name = "rotate-esbl"
    round_size = 2
    min_seconds = 30.0

    def __init__(self, seed: int, workdir: Path, d: int = 10, n: int = 5, pool: int = 8, samples: int = 16):
        self.seed, self.d, self.n, self.pool, self.samples = seed, d, n, pool, samples
        self.inputs = []

    def setup(self) -> None:
        for k in range(self.pool):
            ss = np.random.SeedSequence([self.seed, k])
            slater = k % 2 == 1
            maker = states.random_slater if slater else states.random_state
            self.inputs.append((slater, maker(self.d, self.n, ss)))
        for i in range(self.round_size):
            self.op(-1 - i)

    def op(self, i: int):
        _, state = self.inputs[i % self.pool]
        j = i + self.round_size  # seeds must be >= 0; warm-up operations have i < 0
        u = states.haar_unitary(self.d, np.random.default_rng([self.seed, j]))
        rotated = states.apply_local_unitary(state, u)
        before = separability.analyze(state)
        after = separability.analyze(rotated)
        esbl = separability.esbl_check(rotated, samples=self.samples, seed=j)
        return i, rotated.amplitudes, before, after, esbl.separable

    def check(self, outputs) -> list[list[str]]:
        refs = {k: reference.Reference(self.d, self.n, s.amplitudes) for k, (_, s) in enumerate(self.inputs)}
        failures = []
        for i, amplitudes, before, after, esbl in outputs:
            slater = self.inputs[i % self.pool][0]
            ref_in = refs[i % self.pool]
            ref_out = reference.Reference(self.d, self.n, amplitudes)
            bad = reference.check_analysis(ref_in, report_fields(before), slater=slater)
            bad += reference.check_analysis(ref_out, report_fields(after), slater=slater)
            bad += reference.check_invariance(ref_in, ref_out)
            if esbl is not after.verdict_purity:
                bad.append(f"esbl_check says separable={esbl}, purity verdict {after.verdict_purity}")
            failures.append(bad)
        return failures


WORKLOADS = {w.name: w for w in (CliAnalyze, LargeAnalyze, RotateEsbl)}
