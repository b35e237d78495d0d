"""Unit tests for the background gauge sampler."""

from collections import Counter

import pytest

from repro.obs.gauges import GaugeSampler
from repro.runner import RunnerConfig, run_system
from repro.sim.engine import Engine
from repro.sim.stats import StatsCollector
from repro.workloads import UniformSharingWorkload


def test_sampler_records_timeseries_at_interval():
    engine = Engine()
    stats = StatsCollector()
    sampler = GaugeSampler(engine, stats, interval_us=10.0)
    value = {"v": 0}
    sampler.add("metric", lambda: value["v"])
    sampler.start()

    def workload():
        for i in range(4):
            value["v"] = i
            yield 10.0

    engine.run_process(workload())
    sampler.stop()
    points = stats.series("metric")
    # The sampler ticks first at each interval boundary, so it observes the
    # value set during the *previous* interval.
    assert points[:4] == [(0.0, 0.0), (10.0, 0.0), (20.0, 1.0), (30.0, 2.0)]


def test_report_trace_has_each_gauge_sample_once():
    """``report --trace-out`` injects ``stats.timeseries`` as counter
    tracks; the sampler must not also push its samples into the ring."""
    workload = UniformSharingWorkload(
        4, accesses_per_thread=300, shared_pages=100, seed=1, burst=4
    )
    result = run_system("mind", workload, 2, RunnerConfig(trace=True))
    series = dict(result.stats.timeseries)
    doc = result.trace.chrome_trace(counter_series=series)
    # Link queue-depth counters may legitimately change several times in
    # one instant; a sampled gauge has one value per sampling tick.
    keys = Counter(
        (ev["name"], ev["ts"])
        for ev in doc["traceEvents"]
        if ev["ph"] == "C" and ev["name"] in series
    )
    assert series and max(keys.values()) == 1
    assert sum(keys.values()) == sum(len(points) for points in series.values())
    for name, points in series.items():
        for ts, _value in points:
            assert (name, ts) in keys


def test_stop_lets_the_queue_drain():
    engine = Engine()
    stats = StatsCollector()
    sampler = GaugeSampler(engine, stats, interval_us=1.0)
    sampler.add("g", lambda: 0)
    sampler.start()
    engine.run(until=2.5)  # ticks at t=0, 1, 2
    sampler.stop()
    engine.run()  # would never return if the sampler kept rescheduling
    assert sampler.samples_taken == 3


def test_start_is_idempotent():
    engine = Engine()
    sampler = GaugeSampler(engine, StatsCollector(), interval_us=1.0)
    sampler.add("g", lambda: 1)
    sampler.start()
    sampler.start()  # must not spawn a second sampling process
    engine.run(until=0.5)
    assert sampler.samples_taken == 1
    sampler.stop()
    engine.run()


def test_rejects_non_positive_interval():
    with pytest.raises(ValueError):
        GaugeSampler(Engine(), StatsCollector(), interval_us=0.0)
