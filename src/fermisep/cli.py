"""Command-line front end.

Subcommands: analyze (one state file, full report), random (seeded state-file
ensembles), verify (fast path against the dense brute-force check), esbl
(randomized projection criterion against the purity verdict), measure-sweep
(e_l and e_vn over random and Slater ensembles per (n, d) cell, as a CSV) and
projection-sweep (the projection criterion at several sample counts against
the purity verdict, as a CSV).

Exit codes: 0 ok, 1 check failed, 2 usage or malformed input, 3 I/O failure,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .errors import FermisepError, NotADensityMatrixError
from .oracle import check_cap, densify, oracle_rdm, sparsify
from .rdm import compute_rdm, diagonal_decomposition
from .reporting import flatten_report, format_float, render_csv, render_json
from .separability import DEFAULT_TOLERANCE, analyze, esbl_check
from .states import load_state, random_slater, random_state, save_state

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

MEASURE_FIELDS = ["kind", "n", "d", "index", "purity", "entropy_nats", "e_l", "e_vn", "idempotency_defect", "separable"]
PROJECTION_FIELDS = ["kind", "index", "samples", "agrees", "residual", "null_chains"]


def _seed(text: str) -> int:
    """argparse type of every --seed flag: numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """argparse type of every count flag: a positive integer."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermisep",
        description="Separability analysis for pure states of N identical fermions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one state file and print a report")
    p.add_argument("path", type=Path, help="JSON state file")
    p.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE, help="verdict tolerance (default %(default)g)"
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the canonical JSON report")
    fmt.add_argument("--csv", action="store_true", help="emit the flat CSV report")
    p.add_argument("--bits", action="store_true", help="also show the entropy in bits (display only)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("random", help="write seeded random state files")
    p.add_argument("--d", type=int, required=True, help="number of orbitals")
    p.add_argument("--n", type=int, required=True, help="number of fermions")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--slater", action="store_true", help="draw Slater-rank-one states")
    p.add_argument("--count", type=_count, default=1, help="number of files (default 1)")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory (default .)")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("verify", help="cross-check the fast path against the dense oracle")
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--trials", type=_count, default=20, help="states per (n, d) cell (default 20)")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("esbl", help="randomized projection check vs the purity verdict")
    p.add_argument("path", type=Path, help="JSON state file")
    p.add_argument("--samples", type=_count, default=16)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_esbl)

    p = sub.add_parser("measure-sweep", help="CSV of the measures over random and Slater states per (n, d) cell")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--count", type=_count, default=50, help="states per kind per cell")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p.add_argument("--out", type=Path, default=Path("measure_sweep.csv"))
    p.set_defaults(func=cmd_measure_sweep)

    p = sub.add_parser("projection-sweep", help="CSV of the projection check per sample count vs the purity verdict")
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--states", type=_count, default=40)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--samples", type=_count, nargs="+", default=[1, 2, 4, 8, 16], help="sample counts to sweep")
    p.add_argument("--out", type=Path, default=Path("projection_sweep.csv"))
    p.set_defaults(func=cmd_projection_sweep)

    return parser


def _analysis_record(path: Path, tolerance: float) -> dict:
    start = time.perf_counter()
    state, input_norm = load_state(path)
    t_load = time.perf_counter()
    rho = compute_rdm(state)
    t_rdm = time.perf_counter()
    report = analyze(state, tolerance=tolerance, rdm=rho)
    t_spectral = time.perf_counter()
    record: dict = {
        "input": str(path),
        "d": state.d,
        "n": state.n,
        "input_norm": input_norm,
    }
    record.update(report.to_dict())
    record["spectrum"] = [float(x) for x in report.spectrum.values]
    record["timings"] = {
        "load_ms": (t_load - start) * 1e3,
        "rdm_ms": (t_rdm - t_load) * 1e3,
        "spectral_ms": (t_spectral - t_rdm) * 1e3,
        "total_ms": (time.perf_counter() - start) * 1e3,
    }
    return record


def _print_human(record: dict, bits: bool) -> None:
    v = record["verdicts"]
    n = record["n"]
    print(f"input               {record['input']}")
    print(f"d, n                {record['d']}, {n}")
    print(f"input norm          {format_float(record['input_norm'])}")
    print(f"purity              {format_float(record['purity'])}  (separable value {format_float(1.0 / n)})")
    print(f"entropy             {format_float(record['entropy_nats'])} nats  (ln N = {format_float(math.log(n))})")
    if bits:
        print(f"entropy (bits)      {format_float(record['entropy_nats'] / math.log(2.0))}")
    print(f"e_l                 {format_float(record['e_l'])}")
    print(f"e_vn                {format_float(record['e_vn'])}")
    print(f"idempotency defect  {format_float(record['idempotency_defect'])}")
    print(f"spectrum            {' '.join(format_float(x) for x in record['spectrum'])}")
    print(f"verdicts            purity={v['purity']} entropy={v['entropy']} idempotency={v['idempotency']}")
    result = "separable" if v["separable"] else "entangled"
    print(f"result              {result}  (tolerance {format_float(record['tolerance'])})")


def cmd_analyze(args: argparse.Namespace) -> int:
    record = _analysis_record(args.path, args.tolerance)
    if args.json:
        print(render_json(record))
    elif args.csv:
        row = flatten_report(record)
        print(render_csv(list(row), [row]), end="")
    else:
        _print_human(record, args.bits)
    return EXIT_OK


def cmd_random(args: argparse.Namespace) -> int:
    kind, maker = ("slater", random_slater) if args.slater else ("state", random_state)
    for i, child in enumerate(np.random.SeedSequence(args.seed).spawn(args.count)):
        state = maker(args.d, args.n, child)
        # Only once a state is built, so that refused dimensions leave no directory.
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{kind}-d{args.d}-n{args.n}-seed{args.seed}-{i:04d}.json"
        save_state(state, path)
        print(path)
    return EXIT_OK


def _cells(n_max: int, d_max: int) -> list[tuple[int, int]]:
    """The (n, d) grid of verify and measure-sweep: 2 <= n <= n_max, n <= d <= d_max."""
    return [(n, d) for n in range(2, n_max + 1) for d in range(n, d_max + 1)]


def _verify_cell(n: int, d: int, trials: int, seed: int) -> tuple[dict, list[str]]:
    failures: list[str] = []
    stats = {"oracle": 0.0, "roundtrip": 0.0, "identity": 0.0}

    for trial in range(trials):
        label = f"n={n} d={d} trial={trial} seed={seed}"
        slater = trial % 2 == 1
        maker = random_slater if slater else random_state
        state = maker(d, n, np.random.SeedSequence([seed, n, d, trial]))

        rho = compute_rdm(state)
        dense = densify(state)
        oracle = oracle_rdm(dense)
        dev = float(np.max(np.abs(rho.entries - oracle.entries)))
        stats["oracle"] = max(stats["oracle"], dev)
        if dev > 1e-12:
            failures.append(f"{label}: fast/oracle marginals differ by {dev:.3e}")

        roundtrip = float(np.max(np.abs(sparsify(dense).amplitudes - state.amplitudes)))
        stats["roundtrip"] = max(stats["roundtrip"], roundtrip)
        if roundtrip > 1e-14:
            failures.append(f"{label}: dense round-trip differs by {roundtrip:.3e}")

        report = analyze(state, rdm=rho)
        if report.purity > 1.0 / n + 1e-12:
            failures.append(f"{label}: purity {report.purity!r} above 1/{n}")
        if report.entropy < math.log(n) - 1e-8:
            failures.append(f"{label}: entropy {report.entropy!r} below ln {n}")
        # The verdicts nest (see SeparabilityReport); these are the two bounds behind it.
        if report.idempotency_defect - report.e_l > 1e-14:
            failures.append(f"{label}: idempotency defect exceeds e_l by {report.idempotency_defect - report.e_l:.3e}")
        if n * report.e_l - report.e_vn > 1e-14:
            failures.append(f"{label}: e_vn below {n} * e_l by {n * report.e_l - report.e_vn:.3e}")
        if slater and abs(report.purity - 1.0 / n) > 1e-10:
            failures.append(f"{label}: Slater state purity off by {abs(report.purity - 1 / n):.3e}")

        dec = diagonal_decomposition(state)
        gap = abs(dec.pairwise_identity_gap())
        stats["identity"] = max(stats["identity"], gap)
        if gap > 1e-10:
            failures.append(f"{label}: diagonal decomposition identity gap {gap:.3e}")
        diag_dev = float(np.max(np.abs(dec.diagonal - np.diag(rho.entries).real)))
        if diag_dev > 1e-12:
            failures.append(f"{label}: decomposition diagonal off by {diag_dev:.3e}")

    return stats, failures


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 2 or args.d_max < 2:
        print("error: need --n-max >= 2, --d-max >= 2", file=sys.stderr)
        return EXIT_USAGE
    check_cap(args.d_max, args.n_max)  # the largest cell of the grid

    all_failures: list[str] = []
    print(f"{'n':>2} {'d':>3} {'trials':>6} {'max|fast-oracle|':>17} {'max roundtrip':>14} {'max identity gap':>17}")
    for n, d in _cells(args.n_max, args.d_max):
        stats, failures = _verify_cell(n, d, args.trials, args.seed)
        all_failures.extend(failures)
        flag = "" if not failures else "  FAIL"
        print(
            f"{n:>2} {d:>3} {args.trials:>6} {stats['oracle']:>17.3e} "
            f"{stats['roundtrip']:>14.3e} {stats['identity']:>17.3e}{flag}"
        )

    if all_failures:
        print(f"\n{len(all_failures)} check(s) failed:", file=sys.stderr)
        for line in all_failures:
            print(f"  {line}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("\nall checks passed")
    return EXIT_OK


def cmd_esbl(args: argparse.Namespace) -> int:
    state, _ = load_state(args.path)
    result = esbl_check(state, samples=args.samples, seed=args.seed)
    report = analyze(state)
    print(f"input                {args.path}")
    print(f"projection verdict   {'separable' if result.separable else 'entangled'}")
    print(f"purity verdict       {'separable' if report.separable else 'entangled'}")
    print(f"max residual         {format_float(result.max_residual)}")
    for i, sample in enumerate(result.samples):
        norms = " ".join(format_float(x) for x in sample.projection_norms) or "-"
        kind = "null" if sample.null else ("rank-one" if sample.separable else "rank>1")
        print(f"sample {i:3d}  norms: {norms}  residual: {format_float(sample.residual)}  {kind}")

    if result.separable == report.separable:
        print("verdicts agree")
        return EXIT_OK
    print("verdicts disagree", file=sys.stderr)
    return EXIT_CHECK_FAILED


def _write_sweep(out: Path, header: list[str], rows: list[dict], summary: list[str]) -> int:
    out.write_text(render_csv(header, rows), newline="")
    print("\n".join(summary))
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_measure_sweep(args: argparse.Namespace) -> int:
    rows: list[dict] = []
    summary = [f"{'kind':8} {'n':>2} {'d':>2} {'mean e_l':>12} {'max e_l':>12} {'separable':>9}"]
    for n, d in _cells(args.n_max, args.d_max):
        for kind, maker in (("random", random_state), ("slater", random_slater)):
            reports = [
                analyze(maker(d, n, np.random.SeedSequence([args.seed, n, d, i])), tolerance=args.tolerance)
                for i in range(args.count)
            ]
            rows += [
                {"kind": kind, "n": n, "d": d, "index": i, **r.to_dict(), "separable": r.separable}
                for i, r in enumerate(reports)
            ]
            e_l = np.array([r.e_l for r in reports])
            found = sum(r.separable for r in reports)
            summary.append(f"{kind:8} {n:>2} {d:>2} {e_l.mean():>12.6f} {e_l.max():>12.6f} {found:>5}/{len(reports)}")
    return _write_sweep(args.out, MEASURE_FIELDS, rows, summary)


def cmd_projection_sweep(args: argparse.Namespace) -> int:
    rows: list[dict] = []
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
                    "null_chains": sum(s.null for s in result.samples),
                }
            )
    summary = [f"{'samples':>7} {'agreement':>10} {'max residual (random)':>22}"]
    for samples in args.samples:
        bucket = [r for r in rows if r["samples"] == samples]
        agree = sum(r["agrees"] for r in bucket)
        residual = max(r["residual"] for r in bucket if r["kind"] == "random")
        summary.append(f"{samples:>7} {agree:>6}/{len(bucket)} {residual:>22.6f}")
    return _write_sweep(args.out, PROJECTION_FIELDS, rows, summary)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a package error or I/O failure prints `error: ...` and becomes its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FermisepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotADensityMatrixError):
            return EXIT_NUMERIC
        return EXIT_USAGE if isinstance(exc, FermisepError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
