"""``python -m repro sweep``: run experiment grids, gate on baselines.

Examples::

    # a 3x3x2 grid across 4 worker processes
    python -m repro sweep \\
        --grid "system=mind,gam,fastswap;workload=tf;blades=1;threads_per_blade=1,2,4" \\
        --seeds 1,2 --jobs 4 --out BENCH_sweep.json

    # the CI perf gate: quick subset vs the checked-in baseline
    python -m repro sweep --preset ci-quick --seeds 1,2 --jobs 2 \\
        --out BENCH_sweep.json \\
        --compare-to benchmarks/BENCH_baseline.json --tolerance 0.15

Exit status: 0 on success, 1 when ``--compare-to`` detects a regression.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from .compare import compare
from .engine import SweepResults, run_sweep
from .presets import PRESETS, preset_grids
from .spec import GridSpec, SweepPoint, SweepSpec, parse_grid


def _parse_seeds(text: str) -> List[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise SystemExit(f"bad --seeds {text!r}: expected comma-separated ints")
    if not seeds:
        raise SystemExit(f"bad --seeds {text!r}: no seeds")
    return seeds


def add_sweep_parser(sub: argparse._SubParsersAction) -> None:
    parser = sub.add_parser(
        "sweep",
        help="run an experiment grid across worker processes",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="AXES",
        help="grid in 'axis=v1,v2;axis2=...' syntax (repeatable)",
    )
    parser.add_argument(
        "--preset",
        action="append",
        default=[],
        metavar="NAME",
        help=f"named grid from {sorted(PRESETS)} (repeatable)",
    )
    parser.add_argument(
        "--seeds",
        default="1",
        metavar="S1,S2,...",
        help="seed list crossed with every grid (default: 1)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1; results are identical at any N)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_sweep.json",
        metavar="PATH",
        help="sweep document path (default BENCH_sweep.json)",
    )
    parser.add_argument(
        "--compare-to",
        metavar="BASELINE",
        help="baseline sweep document; exit 1 if any metric regresses",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        metavar="FRAC",
        help="relative tolerance for the regression gate (default 0.15)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore a matching partial document in --out; rerun all points",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="print preset grids and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )
    parser.set_defaults(fn=main)


def _progress(done: int, total: int, point: SweepPoint) -> None:
    print(f"  [{done}/{total}] {point.label()}", file=sys.stderr)


def main(args: argparse.Namespace) -> int:
    if args.list_presets:
        for name in sorted(PRESETS):
            print(name)
            for text in PRESETS[name]:
                print(f"  {text}")
        return 0
    grids: List[GridSpec] = []
    for name in args.preset:
        grids.extend(preset_grids(name))
    grids.extend(parse_grid(text) for text in args.grid)
    if not grids:
        raise SystemExit("nothing to run: pass --grid and/or --preset")
    spec = SweepSpec(grids, _parse_seeds(args.seeds))
    points = spec.points()
    if not args.quiet:
        print(
            f"sweep {spec.digest()}: {len(points)} points, "
            f"{args.jobs} worker(s) -> {args.out}",
            file=sys.stderr,
        )
    results = run_sweep(
        spec,
        jobs=args.jobs,
        out=args.out,
        resume=not args.no_resume,
        progress=None if args.quiet else _progress,
    )
    print(
        f"wrote {args.out}: {len(results)} points, "
        f"{len(results.to_doc()['aggregates'])} cells"
    )
    if args.compare_to:
        baseline = SweepResults.load_doc(args.compare_to)
        report = compare(baseline, results.to_doc(), tolerance=args.tolerance)
        print(report.render())
        if report.has_regressions:
            return 1
    return 0
