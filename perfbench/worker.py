"""One workload process: set up, report ready, run the timed loop, check.

run.py starts this script with the environment it needs (PYTHONPATH on the
checkout's src, one BLAS thread). It prints ``ready`` once set-up is done, so
that the parent can time set-up from process start, and then, unless it is a
set-up probe, one JSON line with the timings, counts and peak memory.

Modes:
  probe    set up and exit; run.py times several set-ups per run.
  measure  closed loop, one caller, for --seconds (or the workload's
           min_seconds, if longer) and at least MIN_OPS operations, in whole
           rounds; peak RSS is read before the checks.
  trace    set-up traced, then the workload's trace_ops operations untraced
           and as many traced, in alternating rounds; prints the per-layer
           figures of tracing.layer_metrics and trace.overhead_ms.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100  # so that ten samples lie beyond op_ms.p90


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_ops(workload, first: int, stop) -> tuple[list[float], list]:
    """Run whole rounds of operations until stop(ops done) holds.

    An operation that raises counts as failed (its output is None); the
    loop goes on.
    """
    times, outputs = [], []
    i = first
    while not stop(i - first):
        for _ in range(workload.round_size):
            start = perf_counter()
            try:
                out = workload.op(i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = None
            times.append(perf_counter() - start)
            outputs.append(out)
            i += 1
    return times, outputs


def check(workload, outputs) -> int:
    """Number of failed operations; prints the first few failures to stderr."""
    done = [o for o in outputs if o is not None]
    failures = [msgs for msgs in workload.check(done) if msgs]
    failed = len(failures) + (len(outputs) - len(done))
    for msgs in failures[:5]:
        print(f"{workload.name}: check failed: " + "; ".join(msgs[:3]), file=sys.stderr)
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import fermisep

    source = Path(fermisep.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"error: fermisep imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracer.install()
            workload.spans_dir = workdir / "spans"
            workload.spans_dir.mkdir()
            workload.record_spans = True
        workload.setup()
        print("ready", flush=True)
        if args.mode == "probe":
            return 0

        if args.mode == "measure":
            seconds = max(args.seconds, workload.min_seconds)
            start = perf_counter()
            times, outputs = run_ops(
                workload, 0, lambda done: done >= MIN_OPS and perf_counter() - start >= seconds
            )
            elapsed = perf_counter() - start
            result = {"times": times, "elapsed": elapsed, "peak_rss_mb": peak_rss_mb()}
        else:
            # Rounds alternate between untraced and traced, so that a drift in
            # machine speed shows in both halves of trace.overhead_ms alike.
            tracer.uninstall()
            plain, traced, outputs = [], [], []
            while len(traced) < workload.trace_ops:
                for times, on in ((plain, False), (traced, True)):
                    workload.record_spans = on
                    if on:
                        tracer.install()
                        tracer.op = 0
                    t, o = run_ops(workload, len(outputs), lambda done: done > 0)
                    tracer.uninstall()
                    times += t
                    outputs += o
            layers = tracing.layer_metrics(tracer, workload.spans_dir, len(traced))
            layers["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) * 1e3
            result = {"layers": layers}
        result["attempted"] = len(outputs)
        result["failed"] = check(workload, outputs)
        result["env"] = environment()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
