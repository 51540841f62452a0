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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .basis import OrbitalBasisIndex
from .errors import DimensionError, FermisepError, NotADensityMatrixError
from .oracle import check_cap, densify, diagonal_decomposition, oracle_rdm, pairwise_identity_gap, sparsify
from .rdm import compute_rdm
from .reporting import flatten_report, format_float, render_csv, render_json
from .separability import DEFAULT_TOLERANCE, analyze, check_tolerance, esbl_check
from .states import load_state, random_slater, random_state, save_state

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

MEASURE_FIELDS = ["kind", "n", "d", "index", "purity", "entropy_nats", "e_l", "e_vn", "idempotency_defect", "separable"]
PROJECTION_FIELDS = ["kind", "index", "samples", "agrees", "residual", "null_chains"]
# verify's table shows the largest deviation per cell of these checks.
TABLE_CHECKS = ["fast/oracle marginal difference", "dense round-trip difference", "|identity gap|"]


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

    # Prefixes are refused, or `measure-sweep --d 4` would run as `--d-max 4`.
    for p in (parser, *sub.choices.values()):
        p.allow_abbrev = False
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
    for i in range(args.count):
        child = np.random.SeedSequence(args.seed, spawn_key=(i,))  # SeedSequence(seed).spawn(count)[i]
        path = args.out / f"{kind}-d{args.d}-n{args.n}-seed{args.seed}-{i:04d}.json"
        save_state(maker(args.d, args.n, child), path)
        print(path)
    return EXIT_OK


def _cells(n_max: int, d_max: int) -> list[tuple[int, int]]:
    """The (n, d) grid of verify and measure-sweep: 2 <= n <= n_max, n <= d <= d_max."""
    return [(n, d) for n in range(2, min(n_max, d_max) + 1) for d in range(n, d_max + 1)]


def _verify_cell(n: int, d: int, trials: int, seed: int) -> tuple[dict, list[str]]:
    worst = dict.fromkeys(TABLE_CHECKS, 0.0)
    failures: list[str] = []
    for trial in range(trials):
        slater = trial % 2 == 1
        state = (random_slater if slater else random_state)(d, n, np.random.SeedSequence([seed, n, d, trial]))
        rho, dense, (w, f) = compute_rdm(state), densify(state), diagonal_decomposition(state)
        report = analyze(state, rdm=rho)
        # (check, deviation, bound); every deviation is at most 0 in exact arithmetic.
        for check, deviation, bound in [
            (TABLE_CHECKS[0], float(np.max(np.abs(rho.entries - oracle_rdm(dense).entries))), 1e-12),
            (TABLE_CHECKS[1], float(np.max(np.abs(sparsify(dense).amplitudes - state.amplitudes))), 1e-14),
            ("purity - 1/n", report.purity - 1.0 / n, 1e-12),
            ("ln n - entropy", math.log(n) - report.entropy, 1e-8),
            # The verdicts nest (see SeparabilityReport); these are the two bounds behind it.
            ("idempotency defect - e_l", report.idempotency_defect - report.e_l, 1e-14),
            ("n * e_l - e_vn", n * report.e_l - report.e_vn, 1e-14),
            (TABLE_CHECKS[2], abs(pairwise_identity_gap(w, f)), 1e-10),
            ("decomposition diagonal", float(np.max(np.abs(w @ f - np.diag(rho.entries).real))), 1e-12),
            ("Slater |purity - 1/n|", abs(report.purity - 1.0 / n) if slater else 0.0, 1e-10),
        ]:
            if check in worst:
                worst[check] = max(worst[check], deviation)
            if not deviation <= bound:  # so that NaN fails too
                failures.append(f"n={n} d={d} trial={trial} seed={seed}: {check} is {deviation:.3e}, not <= {bound:g}")
    return worst, failures


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 2 or args.d_max < 2:
        raise DimensionError("need --n-max >= 2, --d-max >= 2")
    check_cap(args.d_max, min(args.n_max, args.d_max))  # the largest cell of the grid, where n <= d

    all_failures: list[str] = []
    print(f"{'n':>2} {'d':>3} {'trials':>6} {'max|fast-oracle|':>17} {'max roundtrip':>14} {'max identity gap':>17}")
    for n, d in _cells(args.n_max, args.d_max):
        worst, failures = _verify_cell(n, d, args.trials, args.seed)
        all_failures.extend(failures)
        oracle, roundtrip, identity = worst.values()
        flag = "" if not failures else "  FAIL"
        print(f"{n:>2} {d:>3} {args.trials:>6} {oracle:>17.3e} {roundtrip:>14.3e} {identity:>17.3e}{flag}")

    if all_failures:
        print(f"\n{len(all_failures)} check(s) failed:", *all_failures, sep="\n  ", file=sys.stderr)
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


@contextmanager
def _sweep(out: Path, header: list[str]):
    """Yield the (rows, summary) lists for a sweep to fill, with `out` open already, so that an unwritable
    path fails before the first state is drawn; then write the CSV, print the summary and the row count.
    A sweep that raises leaves no file behind."""
    rows: list[dict] = []
    summary: list[str] = []
    with out.open("w", newline="") as handle:
        try:
            yield rows, summary
        except BaseException:
            out.unlink()
            raise
        handle.write(render_csv(header, rows))
    print("\n".join(summary))
    print(f"wrote {len(rows)} rows to {out}")


def cmd_measure_sweep(args: argparse.Namespace) -> int:
    check_tolerance(args.tolerance)  # before --out is opened, and for an empty grid too
    OrbitalBasisIndex(max(args.d_max, 1), 1)  # a --d-max past basis.MAX_D, before its grid is listed
    with _sweep(args.out, MEASURE_FIELDS) as (rows, summary):
        summary.append(f"{'kind':8} {'n':>2} {'d':>2} {'mean e_l':>12} {'max e_l':>12} {'separable':>9}")
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
                summary.append(f"{kind:8} {n:>2} {d:>2} {e_l.mean():>12.6f} {e_l.max():>12.6f} {found:>5}/{args.count}")
    return EXIT_OK


def cmd_projection_sweep(args: argparse.Namespace) -> int:
    with _sweep(args.out, PROJECTION_FIELDS) as (rows, summary):
        for i in range(args.states):
            kind, maker = ("slater", random_slater) if i % 2 else ("random", random_state)
            state = maker(args.d, args.n, np.random.SeedSequence([args.seed, i]))
            truth = analyze(state).separable
            for samples in args.samples:
                result = esbl_check(state, samples=samples, seed=args.seed + i)
                agrees, nulls = result.separable == truth, sum(s.null for s in result.samples)
                rows.append(dict(zip(PROJECTION_FIELDS, (kind, i, samples, agrees, result.max_residual, nulls))))
        summary.append(f"{'samples':>7} {'agreement':>10} {'max residual (random)':>22}")
        for samples in args.samples:
            bucket = [r for r in rows if r["samples"] == samples]
            agree = sum(r["agrees"] for r in bucket)
            residual = max(r["residual"] for r in bucket if r["kind"] == "random")
            summary.append(f"{samples:>7} {agree:>6}/{len(bucket)} {residual:>22.6f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a package error, I/O failure or MemoryError prints `error: ...` and becomes its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FermisepError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, NotADensityMatrixError):
            return EXIT_NUMERIC
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
