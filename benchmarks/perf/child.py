"""One benchmark rep in a fresh interpreter: set up, run every point, check.

Run by ``run.py`` as ``python child.py --workload W --seed N [--profile]``;
prints one JSON document (the rep) as its last line of output.

A rep has two timed phases:

- *setup*: ``import repro`` plus workload synthesis -- trace generation for
  trace-replay points, scenario configuration for the scenario points;
- *simulate*: every point of the workload's grid run through the layer
  entry point ``repro.sweep.engine.execute_point`` dispatches it to
  (``run_system``, ``run_multirack_auto``, ``run_churn``, ``run_service``),
  plus ``extract_metrics`` on its result.

A point that raises, or whose outputs fail a check, is recorded as failed;
the rep carries on with the next point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import (
    CALL_SITES,
    FAULT_PATH_COMPONENTS,
    LAYER_PATHS,
    LAYERS,
    SIM_COUNTERS,
    WORKLOADS,
)

#: (point, zero-argument runner returning a RunResult, expected accesses).
Job = Tuple[Any, Callable[[], Any], Optional[int]]


def setup(workload: str, seed: int, tiny: bool = False) -> List[Job]:
    """Import the simulator and synthesize every point's inputs."""
    from repro.sweep.spec import (
        ALLOC_WORKLOADS,
        SERVICE_WORKLOADS,
        TOPOLOGY_WORKLOADS,
        SweepSpec,
        build_workload_cached,
    )

    spec = SweepSpec.from_grids([WORKLOADS[workload].grid(tiny)], seeds=[seed])
    jobs: List[Job] = []
    for point in spec.points():
        params = dict(point.workload_params)
        params.update(dict(point.runner_params))
        if point.workload in SERVICE_WORKLOADS:
            from repro.service import config_from_params, run_service

            params.setdefault("initial_slots", point.threads_per_blade)
            config = config_from_params(
                params, num_compute_blades=point.num_blades, seed=point.seed
            )
            jobs.append((point, lambda config=config: run_service(config).result, None))
        elif point.workload in TOPOLOGY_WORKLOADS:
            from repro.multirack import config_from_params
            from repro.multirack.parallel import run_multirack_auto

            config = config_from_params(
                params,
                compute_blades_per_rack=point.num_blades,
                threads_per_blade=point.threads_per_blade,
                seed=point.seed,
            )
            jobs.append((point, partial(run_multirack_auto, config), None))
        elif point.workload in ALLOC_WORKLOADS:
            from repro.alloc.scenario import config_from_params, run_churn

            config = config_from_params(
                params,
                compute_blades=point.num_blades,
                threads_per_blade=point.threads_per_blade,
                seed=point.seed,
            )
            jobs.append((point, partial(run_churn, config), None))
        else:
            from repro.runner import run_system

            trace = build_workload_cached(point)
            # Generate every thread's stream now; runs reuse the memo.
            trace.all_traces([0] * len(trace.region_specs()))
            run = partial(
                run_system, point.system, trace, point.num_blades, point.runner_config()
            )
            jobs.append((point, run, trace.num_threads * trace.accesses_per_thread))
    return jobs


def run_pass(jobs: List[Job], profiler=None) -> Tuple[float, List[Dict[str, Any]], List]:
    """Run every point once; returns (simulate seconds, outcomes, spans)."""
    from repro.sweep.engine import extract_metrics

    simulate_s = 0.0
    outcomes = []
    spans = []
    for point, run, expected_accesses in jobs:
        t0 = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = run()
            metrics = extract_metrics(result)
        except Exception as exc:  # a failed point-run must not end the rep
            outcomes.append({"point": point.label(), "error": f"{type(exc).__name__}: {exc}"})
            continue
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = perf_counter() - t0
        simulate_s += elapsed
        spans.append({"name": point.label(), "start_s": t0, "dur_s": elapsed})
        outcomes.append(_outcome(point, result, metrics, expected_accesses, elapsed))
    return simulate_s, outcomes, spans


def _outcome(point, result, metrics: Dict[str, float], expected_accesses, seconds: float
             ) -> Dict[str, Any]:
    stats = result.stats
    breakdown = stats.breakdown("fault_path")
    return {
        "point": point.label(),
        "error": None,
        "seconds": seconds,
        "check_errors": output_errors(result, expected_accesses),
        "digest": metrics_digest([metrics]),
        "metrics": metrics,
        "runtime_us": float(result.runtime_us),
        "total_accesses": int(result.total_accesses),
        "remote_accesses": int(stats.counters.get("remote_accesses", 0)),
        "counters": {c: stats.counters.get(c, 0) for c in SIM_COUNTERS.values()},
        "fault_path": {c: breakdown.get(c, 0.0) for c in FAULT_PATH_COMPONENTS},
        "kernel": dict(result.kernel_stats),
    }


def output_errors(result, expected_accesses: Optional[int]) -> List[str]:
    """The output checks one point-run must pass (empty list: all passed)."""
    errors = []
    stats = result.stats
    if expected_accesses is not None and result.total_accesses != expected_accesses:
        errors.append(
            f"total_accesses {result.total_accesses} != threads x "
            f"accesses_per_thread {expected_accesses}"
        )
    faults = stats.latencies.get("fault", ())
    remote = stats.counters.get("remote_accesses", 0)
    if len(faults) != remote:
        errors.append(f"{len(faults)} fault latencies != {remote} remote accesses")
    # The fail-over gate in handle_fault waits before the span cursor opens,
    # so runs that crashed the switch carry unattributed fault time.
    if not stats.counters.get("switch_crashes"):
        total = math.fsum(faults)
        parts = math.fsum(stats.breakdown("fault_path").values())
        if abs(parts - total) > 1e-9 * abs(total) or (total == 0.0 and parts != 0.0):
            errors.append(f"fault_path components sum to {parts!r}, faults to {total!r}")
    return errors


def metrics_digest(docs: List[Dict[str, float]]) -> str:
    """sha1 of metric documents, keys sorted (floats print round-trip exact)."""
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def profile_summary(profiler) -> Dict[str, Any]:
    """Self time per layer and call counts of the tracked functions."""
    import pstats

    stats = pstats.Stats(profiler)
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(CALL_SITES, 0)
    sites = {(f"/repro/{path}", fn): name for name, (path, fn) in CALL_SITES.items()}
    rows = []
    for (filename, lineno, fn), (_cc, nc, tottime, cumtime, _callers) in stats.stats.items():  # type: ignore[attr-defined]
        path = filename.replace(os.sep, "/")
        self_s[_layer_of(path)] += tottime
        for (suffix, func), metric in sites.items():
            if func == fn and path.endswith(suffix):
                calls[metric] += nc
        rows.append((tottime, cumtime, nc, f"{_short(path)}:{lineno}({fn})"))
    rows.sort(reverse=True)
    return {
        "total_s": stats.total_tt,  # type: ignore[attr-defined]
        "self_s": self_s,
        "calls": calls,
        "top": [
            {"tottime_s": t, "cumtime_s": c, "calls": n, "function": f}
            for t, c, n, f in rows[:40]
        ],
    }


def _layer_of(path: str) -> str:
    for layer, needles in LAYER_PATHS:
        if any(f"/repro/{needle}" in path for needle in needles):
            return layer
    return "other"


def _short(path: str) -> str:
    marker = path.rfind("/repro/")
    return path[marker + 1:] if marker >= 0 else path


def run_rep(workload: str, seed: int, profile: bool = False, tiny: bool = False) -> Dict[str, Any]:
    """One rep in this process: timed setup, timed pass, checks."""
    t0 = perf_counter()
    jobs = setup(workload, seed, tiny)
    setup_s = perf_counter() - t0
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    simulate_s, outcomes, spans = run_pass(jobs, profiler)
    for span in spans:
        span["start_s"] -= t0
    ok = [o for o in outcomes if o["error"] is None]
    rep = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "simulate_s": simulate_s,
        "peak_rss_mb": peak_rss_mb(),
        "sim_digest": (
            metrics_digest([o["metrics"] for o in ok]) if len(ok) == len(outcomes) else None
        ),
        "points": [{k: v for k, v in o.items() if k != "metrics"} for o in outcomes],
        "spans": [{"name": "setup", "start_s": 0.0, "dur_s": setup_s}] + spans,
    }
    if profiler is not None:
        rep["profile"] = profile_summary(profiler)
    return rep


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--profile", action="store_true", help="run the pass under cProfile")
    parser.add_argument("--tiny", action="store_true", help="self-test scale")
    args = parser.parse_args(argv)
    rep = run_rep(args.workload, args.seed, profile=args.profile, tiny=args.tiny)
    sys.stdout.write(json.dumps(rep) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
