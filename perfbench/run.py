"""Benchmark entry point: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; it measures the fermisep in ./src.
With --trace 0 it sets the workload up SETUPS times in fresh processes
(setup_s is their median) and measures one of them for S seconds (or the
workload's min_seconds, if longer) and at least worker.MIN_OPS operations. With --trace 1 it runs a traced pass of
every workload, whatever --workload names, and prints every per-layer metric
that BENCHMARK.json lists, named <workload>.<layer>.
The last line of standard output is the result as one JSON object; the full
record, with the machine description, goes to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

WORKLOADS = ("rotate-esbl", "large-analyze", "cli-analyze")
# Set-ups per run, each in a fresh process; setup_s is their median. A short
# set-up takes more of them for as steady a median; cli-analyze's and
# large-analyze's take 1.3 s and 7 s, so they get two, which leaves time for
# rotate-esbl's long runs. Half of the probes run before the measured worker
# and half after it, so that the set-ups sample the machine's speed across the
# whole run and not in one burst.
SETUPS = {"rotate-esbl": 5, "large-analyze": 2, "cli-analyze": 2}
WORKER_TIMEOUT_S = 150


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> tuple[float, dict | None]:
    """Run worker.py; returns (seconds from start to ``ready``, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--workdir", str(OUT)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"error: {workload} worker did not finish within {WORKER_TIMEOUT_S} s")
        if ready.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"error: {workload} worker failed in {mode} mode (exit {proc.returncode})")
    return setup_s, (json.loads(rest.strip().splitlines()[-1]) if mode != "probe" else None)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    probes = SETUPS[workload] - 1
    setups = [start_worker(workload, seed, "probe")[0] for _ in range(probes // 2)]
    setup_s, res = start_worker(workload, seed, "measure", seconds)
    setups.append(setup_s)
    setups += [start_worker(workload, seed, "probe")[0] for _ in range(probes - probes // 2)]
    ms = [t * 1e3 for t in res["times"]]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "op_ms.p50": metric(statistics.median(ms), "ms"),
        "op_ms.p90": metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "ops_per_s": metric(len(ms) / res["elapsed"], "1/s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    record = {"setups_s": setups, "elapsed_s": res["elapsed"], "op_ms": ms, "env": res["env"]}
    return {"attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}, record


def traced(seed: int) -> tuple[dict, dict]:
    layers, attempted, failed, record = {}, 0, 0, {}
    for workload in WORKLOADS:
        _, res = start_worker(workload, seed, "trace")
        attempted += res["attempted"]
        failed += res["failed"]
        layers[workload] = res["layers"]
        record[workload] = {"layers": res["layers"], "env": res["env"]}
    metrics = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        workload, layer = m["name"].split(".", 1)
        if layer not in layers[workload]:
            raise SystemExit(f"error: the traced run of {workload} gave no {layer}")
        metrics[m["name"]] = metric(layers[workload][layer], m["unit"])
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fermisep" / "__init__.py").is_file():
        print(f"error: no fermisep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result, record = traced(args.seed)
    else:
        result, record = untraced(args.workload, args.seed, args.seconds)
    result = {"correct": result["failed"] == 0, **result}
    env = next(iter(record.values()))["env"] if args.trace else record["env"]
    print(json.dumps({"env": env}))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"args": vars(args), "result": result, "record": record}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
