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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fermisep.separability import analyze, esbl_check
from fermisep.states import random_slater, random_state
from measure_sweep import write_csv  # the script's own directory is on sys.path

FIELDS = ["kind", "index", "samples", "agrees", "residual", "null_chains"]


@dataclass(frozen=True)
class ProjectionConfig:
    d: int = 6
    n: int = 3
    states: int = 40
    seed: int = 0
    sample_counts: tuple[int, ...] = (1, 2, 4, 8, 16)
    out: Path = Path("projection_sweep.csv")


def run_experiment(config: ProjectionConfig) -> list[dict[str, object]]:
    rows: list[dict[str, object]] = []
    for i in range(config.states):
        kind, maker = ("slater", random_slater) if i % 2 else ("random", random_state)
        state = maker(config.d, config.n, np.random.SeedSequence([config.seed, i]))
        truth = analyze(state).separable
        for samples in config.sample_counts:
            result = esbl_check(state, samples=samples, seed=config.seed + i)
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


def print_summary(rows: list[dict[str, object]], config: ProjectionConfig) -> None:
    print(f"{'samples':>7} {'agreement':>10} {'max residual (random)':>22}")
    for samples in config.sample_counts:
        bucket = [r for r in rows if r["samples"] == samples]
        agree = sum(1 for r in bucket if r["agrees"])
        residuals = [r["residual"] for r in bucket if r["kind"] == "random"]
        print(f"{samples:>7} {agree:>6}/{len(bucket)} {max(residuals):>22.6f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    defaults = ProjectionConfig()
    parser.add_argument("--d", type=int, default=defaults.d)
    parser.add_argument("--n", type=int, default=defaults.n)
    parser.add_argument("--states", type=int, default=defaults.states)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--samples",
        type=int,
        nargs="+",
        default=list(defaults.sample_counts),
        help="sample counts to sweep",
    )
    parser.add_argument("--out", type=Path, default=defaults.out)
    args = parser.parse_args(argv)
    config = ProjectionConfig(
        d=args.d,
        n=args.n,
        states=args.states,
        seed=args.seed,
        sample_counts=tuple(args.samples),
        out=args.out,
    )
    rows = run_experiment(config)
    write_csv(rows, config.out, FIELDS)
    print_summary(rows, config)
    print(f"wrote {len(rows)} rows to {config.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
