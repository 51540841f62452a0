"""Sweep entanglement measures over random ensembles and write a CSV.

For every (n, d) cell in the grid this samples Haar-like states and Slater
determinants, analyzes each one, and records one row per state. The stdout
summary gives per-cell means so ensemble trends (e.g. how the mean linear
measure grows with d at fixed n) can be read without opening the file.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fermisep.cli import _count, _seed, run_guarded
from fermisep.reporting import render_csv
from fermisep.separability import DEFAULT_TOLERANCE, analyze
from fermisep.states import random_slater, random_state

FIELDS = [
    "kind",
    "n",
    "d",
    "index",
    "purity",
    "entropy_nats",
    "e_l",
    "e_vn",
    "idempotency_defect",
    "separable",
]


def cells(args: argparse.Namespace) -> list[tuple[int, int]]:
    return [(n, d) for n in range(2, args.n_max + 1) for d in range(n, args.d_max + 1)]


def run_sweep(args: argparse.Namespace) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for n, d in cells(args):
        for kind, maker in (("random", random_state), ("slater", random_slater)):
            for i in range(args.count):
                state = maker(d, n, np.random.SeedSequence([args.seed, n, d, i]))
                report = analyze(state, tolerance=args.tolerance)
                rows.append(
                    {
                        "kind": kind,
                        "n": n,
                        "d": d,
                        "index": i,
                        "purity": report.purity,
                        "entropy_nats": report.entropy,
                        "e_l": report.e_l,
                        "e_vn": report.e_vn,
                        "idempotency_defect": report.idempotency_defect,
                        "separable": report.separable,
                    }
                )
    return rows


def print_summary(rows: list[dict[str, object]], args: argparse.Namespace) -> None:
    print(f"{'kind':8} {'n':>2} {'d':>2} {'mean e_l':>12} {'max e_l':>12} {'separable':>9}")
    for n, d in cells(args):
        for kind in ("random", "slater"):
            cell = [r for r in rows if r["kind"] == kind and r["n"] == n and r["d"] == d]
            e_l = np.array([r["e_l"] for r in cell])
            count = sum(1 for r in cell if r["separable"])
            print(
                f"{kind:8} {n:>2} {d:>2} {e_l.mean():>12.6f} {e_l.max():>12.6f}"
                f" {count:>5}/{len(cell)}"
            )


def run(args: argparse.Namespace) -> int:
    rows = run_sweep(args)
    args.out.write_text(render_csv(FIELDS, rows), newline="")
    print_summary(rows, args)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--d-max", type=int, default=8)
    parser.add_argument("--count", type=_count, default=50, help="states per kind per cell")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    parser.add_argument("--out", type=Path, default=Path("measure_sweep.csv"))
    return run_guarded(run, parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
