"""Determinism regression: identical runs produce identical telemetry.

The engine never consults wall clock and breaks event-queue ties by
insertion order, so a run is a pure function of (workload, seed, config).
These tests pin that property at the observability layer: two identical
runs must agree on runtime, every counter, and the *byte-identical* trace
export -- any nondeterminism smuggled into instrumentation (dict ordering,
id()-keyed tracks, wall-clock timestamps) fails here.
"""

from repro.faults import FaultPlan
from repro.runner import RunnerConfig, run_system
from repro.sweep.engine import extract_metrics
from repro.workloads import UniformSharingWorkload


def _workload():
    return UniformSharingWorkload(
        4,
        accesses_per_thread=300,
        read_ratio=0.3,
        sharing_ratio=0.7,
        shared_pages=200,
        private_pages_per_thread=64,
        seed=42,
        burst=4,
    )


def _run(trace: bool):
    return run_system("mind", _workload(), 2, RunnerConfig(trace=trace))


def test_same_seed_yields_identical_run_and_trace():
    a = _run(trace=True)
    b = _run(trace=True)
    assert a.runtime_us == b.runtime_us
    assert a.total_accesses == b.total_accesses
    assert dict(a.stats.counters) == dict(b.stats.counters)
    assert a.stats.breakdowns == b.stats.breakdowns
    # Byte-identical trace output, both raw JSONL and the Chrome export.
    assert a.trace.to_jsonl() == b.trace.to_jsonl()
    assert len(a.trace) == len(b.trace)


def _config(name: str, observed: bool):
    """(system, RunnerConfig) for one of the tracing-equivalence configs."""
    kwargs = dict(trace=observed, telemetry=observed)
    if name == "switch-crash+loss":
        kwargs["fault_plan"] = (
            FaultPlan(seed=7).switch_crash(at_us=1_500).packet_loss(0, 1e9, prob=0.01)
        )
        return "mind", RunnerConfig(**kwargs)
    if name == "poisson":
        kwargs["arrival_process"] = "poisson"
        return "mind", RunnerConfig(**kwargs)
    return name, RunnerConfig(**kwargs)


def _simulated_metrics(result):
    """Sweep metrics minus the ones only a telemetry run reports."""
    return {
        key: value
        for key, value in extract_metrics(result).items()
        if not key.startswith(("slo:", "telemetry:"))
    }


def test_tracing_does_not_perturb_the_simulation():
    # Observers are pure: a run with tracing, the telemetry timeline and
    # gauge sampling all on dispatches exactly the plain run's events
    # (same fusions, same batched replay, same processes), not merely
    # the same simulated results.
    for name in ("mind", "mind-pso", "mind-moesi", "switch-crash+loss", "poisson"):
        observed, plain = (
            run_system(system, _workload(), 2, config)
            for system, config in (_config(name, True), _config(name, False))
        )
        assert observed.kernel_stats == plain.kernel_stats, name
        assert _simulated_metrics(observed) == _simulated_metrics(plain), name
