"""Unit tests for metric collection and run results."""

import pytest

from repro.sim.stats import LatencySummary, RunResult, StatsCollector


def test_counters_accumulate():
    stats = StatsCollector()
    stats.incr("x")
    stats.incr("x", 4)
    assert stats.counter("x") == 5
    assert stats.counter("missing") == 0


def test_latency_summary():
    stats = StatsCollector()
    for v in (1.0, 2.0, 3.0, 4.0, 100.0):
        stats.record_latency("fault", v)
    summary = stats.latency_summary("fault")
    assert summary.count == 5
    assert summary.mean == pytest.approx(22.0)
    assert summary.p50 == pytest.approx(3.0)
    assert summary.max == 100.0


def test_latency_summary_empty():
    summary = LatencySummary.of([])
    assert summary.count == 0
    assert summary.mean == 0.0


def test_mean_latency_shortcut():
    stats = StatsCollector()
    stats.record_latency("a", 2.0)
    stats.record_latency("a", 4.0)
    assert stats.mean_latency("a") == pytest.approx(3.0)


def test_timeseries_points():
    stats = StatsCollector()
    stats.record_point("entries", 1.0, 10)
    stats.record_point("entries", 2.0, 20)
    assert stats.series("entries") == [(1.0, 10), (2.0, 20)]
    assert stats.series("missing") == []


def test_breakdown_accumulates():
    stats = StatsCollector()
    stats.add_breakdown("inv", "tlb", 3.0)
    stats.add_breakdown("inv", "tlb", 2.0)
    stats.add_breakdown("inv", "queue", 1.0)
    assert stats.breakdown("inv") == {"tlb": 5.0, "queue": 1.0}


def _result(runtime_us=1000.0, total=100):
    return RunResult(
        system="MIND",
        workload="test",
        num_blades=1,
        num_threads=1,
        runtime_us=runtime_us,
        total_accesses=total,
    )


def test_throughput_iops():
    r = _result(runtime_us=1_000_000.0, total=500)
    assert r.throughput_iops == pytest.approx(500.0)


def test_throughput_zero_runtime():
    assert _result(runtime_us=0.0).throughput_iops == 0.0


def test_performance_is_inverse_runtime():
    assert _result(runtime_us=4.0).performance == pytest.approx(0.25)


def test_normalized_to_baseline():
    fast = _result(runtime_us=500.0)
    slow = _result(runtime_us=1000.0)
    assert fast.normalized_to(slow) == pytest.approx(2.0)
    assert slow.normalized_to(slow) == pytest.approx(1.0)


def test_fraction_of_accesses():
    r = _result(total=200)
    r.stats.incr("invalidations_sent", 50)
    assert r.fraction_of_accesses("invalidations_sent") == pytest.approx(0.25)
    assert _result(total=0).fraction_of_accesses("x") == 0.0


def test_breakdowns_and_gauges_pickle():
    import pickle

    stats = StatsCollector()
    stats.add_breakdown("fault_path", "fetch", 4.5)
    stats.add_breakdown("fault_path", "fetch", 0.5)
    stats.set_gauge("utilization:link:up0", 0.25)
    clone = pickle.loads(pickle.dumps(stats))
    assert clone.breakdowns == {"fault_path": {"fetch": 5.0}}
    assert clone.gauges == {"utilization:link:up0": 0.25}
