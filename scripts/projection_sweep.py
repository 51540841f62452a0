"""Measure how the randomized projection check behaves as samples grow.

The projection check decides separability by repeatedly projecting single
particles out on random directions and reading the Slater rank at the bottom
of the chain. This experiment runs the check at several sample counts against
the purity verdict on a mixed ensemble, recording agreement and the largest
rank-one residual seen, to show how quickly one sample already suffices in
practice and how the residual margin grows with entanglement.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fermisep.cli import _count, _seed, run_guarded
from fermisep.reporting import render_csv
from fermisep.separability import analyze, esbl_check
from fermisep.states import random_slater, random_state

FIELDS = ["kind", "index", "samples", "agrees", "residual", "null_chains"]


def run_experiment(args: argparse.Namespace) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for i in range(args.states):
        kind, maker = ("slater", random_slater) if i % 2 else ("random", random_state)
        state = maker(args.d, args.n, np.random.SeedSequence([args.seed, i]))
        truth = analyze(state).separable
        for samples in args.samples:
            result = esbl_check(state, samples=samples, seed=args.seed + i)
            rows.append(
                {
                    "kind": kind,
                    "index": i,
                    "samples": samples,
                    "agrees": result.separable == truth,
                    "residual": result.max_residual,
                    "null_chains": sum(1 for s in result.samples if s.null),
                }
            )
    return rows


def print_summary(rows: list[dict[str, object]], args: argparse.Namespace) -> None:
    print(f"{'samples':>7} {'agreement':>10} {'max residual (random)':>22}")
    for samples in args.samples:
        bucket = [r for r in rows if r["samples"] == samples]
        agree = sum(1 for r in bucket if r["agrees"])
        residuals = [r["residual"] for r in bucket if r["kind"] == "random"]
        print(f"{samples:>7} {agree:>6}/{len(bucket)} {max(residuals):>22.6f}")


def run(args: argparse.Namespace) -> int:
    rows = run_experiment(args)
    args.out.write_text(render_csv(FIELDS, rows), newline="")
    print_summary(rows, args)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, default=6)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--states", type=_count, default=40)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--samples", type=_count, nargs="+", default=[1, 2, 4, 8, 16], help="sample counts to sweep")
    parser.add_argument("--out", type=Path, default=Path("projection_sweep.csv"))
    return run_guarded(run, parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
