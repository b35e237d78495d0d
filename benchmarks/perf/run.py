"""The repo benchmark: host time, memory and simulated outputs per workload.

    PYTHONPATH=src python benchmarks/perf/run.py [--seed N] [--workload W]
        [--trace [0|1]] [--layers] [--seconds S] [--json-out PATH]

Every rep runs in a fresh child interpreter (``child.py``), one child at a
time, and reps go round-robin across the selected workloads so slow phases
of a shared machine spread over all of them.  Without ``--seconds`` each
workload gets ``--reps`` reps (default 7); with it, reps continue until the
time is spent (at least 3 per workload).

End-to-end metrics, per workload: ``setup_s`` (min over reps),
``simulate_s`` (each point's min over reps, summed), ``peak_rss_mb``
(median), ``sim_time_us`` (simulated, identical in every rep) and
``failed_frac``.  ``--trace 1`` reports the per-layer metrics instead:
kernel and modelled-design counters, one extra pass under cProfile (self
time per layer and call counts, also written to ``trace-<workload>.json``)
and the layer microbenchmarks at quick scale.  ``--layers`` runs only the
layer microbenchmarks, at full scale.

The last line of output is one JSON object: ``correct``, ``attempted`` and
``failed`` count point-runs; ``metrics`` maps each metric to its value and
unit.  See README.md for the workloads and the metric definitions.
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
from typing import Any, Callable, Dict, List, Optional

from workloads import (
    CALL_SITES,
    END_TO_END,
    FAULT_PATH_COMPONENTS,
    KERNEL_COUNTERS,
    LAYERS,
    PEAK_COUNTERS,
    SIM_COUNTERS,
    WORKLOADS,
    per_layer_metrics,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: fewest reps per workload in a time-boxed run.
MIN_REPS = 3
#: a child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170

RepFn = Callable[..., Dict[str, Any]]


class BenchError(RuntimeError):
    """A child process failed; the benchmark cannot report a result."""


# -- children ----------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # One busy thread per child, and one hash layout for every rep.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(script: str, args: List[str]) -> Any:
    """Run a child script to completion; parse its last output line."""
    cmd = [sys.executable, str(HERE / script), *args]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{script} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


def spawn_rep(workload: str, seed: int, profile: bool = False, tiny: bool = False) -> Dict[str, Any]:
    args = ["--workload", workload, "--seed", str(seed)]
    args += ["--profile"] * profile + ["--tiny"] * tiny
    return _spawn("child.py", args)


def spawn_layers(reps: int, quick: bool) -> Dict[str, Dict[str, Any]]:
    return _spawn("layers.py", ["--reps", str(reps)] + ["--quick"] * quick)


# -- scheduling --------------------------------------------------------------


def collect(
    workloads: List[str],
    seed: int,
    reps: int,
    seconds: Optional[float] = None,
    tiny: bool = False,
    rep_fn: RepFn = spawn_rep,
) -> Dict[str, List[Dict[str, Any]]]:
    """Round-robin reps over ``workloads``: ``reps`` rounds, or rounds until
    ``seconds`` per workload are spent (at least :data:`MIN_REPS`)."""
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    start = perf_counter()
    rounds = 0
    while True:
        for workload in workloads:
            runs[workload].append(rep_fn(workload, seed, tiny=tiny))
        rounds += 1
        if seconds is None:
            if rounds >= reps:
                return runs
            continue
        elapsed = perf_counter() - start
        if rounds >= MIN_REPS and elapsed * (rounds + 1) / rounds > seconds * len(workloads):
            return runs


# -- aggregation -------------------------------------------------------------


def point_failures(runs: List[Dict[str, Any]]) -> List[str]:
    """Every failed point-run: raised, failed a check, or differs from the
    first run of the same point (simulated metrics or kernel counters)."""
    failures = []
    reference: Dict[int, Any] = {}
    for rep, run in enumerate(runs, 1):
        for index, point in enumerate(run["points"]):
            where = f"rep {rep}, {point['point']}"
            if point["error"] is not None:
                failures.append(f"{where}: raised {point['error']}")
                continue
            fingerprint = (point["digest"], point["kernel"])
            first = reference.setdefault(index, (rep, fingerprint))
            if first[1] != fingerprint:
                failures.append(f"{where}: metrics differ from rep {first[0]}")
            elif point["check_errors"]:
                failures.append(f"{where}: " + "; ".join(point["check_errors"]))
    return failures


def summarize(
    reps: List[Dict[str, Any]], traced: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """One workload's metrics from its reps (and its traced pass, if any)."""
    runs = reps + ([traced] if traced is not None else [])
    failures = point_failures(runs)
    attempted = sum(len(run["points"]) for run in runs)
    ok = [p for p in reps[0]["points"] if p["error"] is None]
    total_accesses = sum(p["total_accesses"] for p in ok)
    passes = [r["simulate_s"] for r in reps]
    # Each point's best time over the reps, summed: a slow phase of the
    # machine then has to cover a point in every rep to inflate the result.
    best_point_s = [
        min((p["seconds"] for p in points if p["error"] is None), default=0.0)
        for points in zip(*(r["points"] for r in reps))
    ]
    end_to_end = {
        "setup_s": min(r["setup_s"] for r in reps),
        "simulate_s": sum(best_point_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "sim_time_us": sum(p["runtime_us"] for p in ok),
    }
    layer: Dict[str, float] = {}
    for name in KERNEL_COUNTERS:
        layer[f"kernel.{name}"] = sum(p["kernel"].get(name, 0) for p in ok)
    layer["kernel.events_per_access"] = layer["kernel.events_executed"] / max(total_accesses, 1)
    remote = sum(p["remote_accesses"] for p in ok)
    layer["sim.blades.hit_ratio"] = 1.0 - remote / max(total_accesses, 1)
    for metric, counter in SIM_COUNTERS.items():
        values = [p["counters"][counter] for p in ok]
        layer[f"sim.{metric}"] = max(values, default=0) if counter in PEAK_COUNTERS else sum(values)
    for component in FAULT_PATH_COMPONENTS:
        name = f"sim.fault_path.{component.replace('+', '_')}_us"
        layer[name] = sum(p["fault_path"][component] for p in ok)
    if traced is not None:
        profile = traced["profile"]
        for name in LAYERS:
            layer[f"self_s.{name}"] = profile["self_s"][name]
        for name in CALL_SITES:
            layer[f"calls.{name}"] = profile["calls"][name]
        layer["trace_overhead"] = traced["simulate_s"] / min(passes)
    return {
        "reps": len(reps),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "sim_digest": reps[0]["sim_digest"],
        "end_to_end": end_to_end,
        "per_layer": layer,
        "setup_s_reps": [r["setup_s"] for r in reps],
        "pass_s_reps": passes,
        "best_point_s": best_point_s,
    }


# -- reporting ---------------------------------------------------------------

UNITS = {name: unit for name, unit, _ in END_TO_END + per_layer_metrics()}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_summary(workload: str, summary: Dict[str, Any], traced: bool) -> None:
    n = summary["reps"]
    how = {"setup_s": f"min of {n}", "simulate_s": f"per-point min of {n}, summed",
           "peak_rss_mb": f"median of {n}", "sim_time_us": "simulated"}
    print(f"{workload}: {summary['attempted']} point-runs, {summary['failed']} failed "
          f"-- {WORKLOADS[workload].why}")
    for name, value in summary["end_to_end"].items():
        print(f"  {name:<36} {_fmt(value):>14} {UNITS[name]:<6} ({how[name]})")
    print(f"  {'failed_frac':<36} {_fmt(summary['failed_frac']):>14} ratio")
    print(f"  {'sim_digest':<36} {summary['sim_digest']}")
    if traced:
        for name, value in summary["per_layer"].items():
            print(f"  {name:<36} {_fmt(value):>14} {UNITS[name]}")
    for failure in summary["failures"][:10]:
        print(f"  FAILED {failure}", file=sys.stderr)


def print_micro(micro: Dict[str, Dict[str, Any]]) -> None:
    for name, metric in micro.items():
        print(f"  {name:<42} {_fmt(metric['value']):>14} {metric['unit']}")


def _metric(name: str, value: float) -> Dict[str, Any]:
    return {"value": value, "unit": UNITS[name]}


def write_trace(out_dir: Path, workload: str, seed: int, traced: Dict[str, Any],
                overhead: float) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "trace_overhead": overhead,
        "profile": traced["profile"],
        "spans": traced["spans"],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


# -- main --------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--reps", type=int, default=7,
                        help="reps per workload when --seconds is not given (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure each workload for about this long instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report the per-layer metrics (traced pass, counters, "
                        "quick microbenchmarks) instead of the end-to-end ones")
    parser.add_argument("--layers", action="store_true",
                        help="run only the layer microbenchmarks, best of --reps")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".perf-out",
                        help="where --trace writes trace-<workload>.json")
    parser.add_argument("--json-out", type=Path, help="write the full result document here")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: tiny grids, quick microbenchmarks")
    args = parser.parse_args(argv)
    if args.reps < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--reps and --seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    try:
        doc = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json_out is not None:
        args.json_out.write_text(json.dumps(doc, indent=2) + "\n")
    line = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
    return 0


def run(args: argparse.Namespace) -> Dict[str, Any]:
    """Measure, print the human-readable report, return the result document."""
    if args.layers:
        micro = spawn_layers(args.reps, quick=args.tiny)
        print_micro(micro)
        return {"correct": True, "attempted": len(micro), "failed": 0, "metrics": micro}

    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    traced = bool(args.trace)
    start = perf_counter()
    profiles: Dict[str, Dict[str, Any]] = {}
    micro: Dict[str, Dict[str, Any]] = {}
    if traced:
        for workload in workloads:
            profiles[workload] = spawn_rep(workload, args.seed, profile=True, tiny=args.tiny)
        micro = spawn_layers(1 if args.tiny else 3, quick=True)
    seconds = args.seconds
    if seconds is not None:
        # The traced passes and microbenchmarks count against the budget.
        seconds = max(seconds - (perf_counter() - start) / len(workloads), 0.0)
    runs = collect(workloads, args.seed, args.reps, seconds, args.tiny)

    doc: Dict[str, Any] = {"seed": args.seed, "workloads": {}, "metrics": {}}
    attempted = failed = 0
    for workload in workloads:
        summary = summarize(runs[workload], profiles.get(workload))
        print_summary(workload, summary, traced)
        if traced:
            overhead = summary["per_layer"]["trace_overhead"]
            path = write_trace(args.out_dir, workload, args.seed, profiles[workload], overhead)
            print(f"  wrote {path}")
            values = dict(summary["per_layer"])
            values.update((name, m["value"]) for name, m in micro.items())
        else:
            values = summary["end_to_end"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        doc["metrics"].update((prefix + k, _metric(k, v)) for k, v in values.items())
        doc["workloads"][workload] = summary
        attempted += summary["attempted"]
        failed += summary["failed"]
    if micro:
        print("layer microbenchmarks (quick):")
        print_micro(micro)
    doc.update(correct=failed == 0, attempted=attempted, failed=failed)
    return doc


if __name__ == "__main__":
    sys.exit(main())
