"""Unit tests for gauge sampling through the engine observer."""

from collections import Counter

import pytest

from repro.runner import RunnerConfig, run_system
from repro.sim.engine import Engine, Resource, SimulationError
from repro.sim.stats import StatsCollector
from repro.workloads import UniformSharingWorkload


def test_sampler_records_timeseries_at_interval():
    engine = Engine()
    stats = StatsCollector()
    value = {"v": 0}
    engine.observe(10.0, lambda t: stats.record_point("metric", t, float(value["v"])))

    def workload():
        for i in range(4):
            value["v"] = i
            yield 10.0

    engine.run_process(workload())
    points = stats.series("metric")
    # A sample at t comes before every event at t, so it observes the
    # value set during the *previous* interval.
    assert points[:4] == [(0.0, 0.0), (10.0, 0.0), (20.0, 1.0), (30.0, 2.0)]


def test_sample_comes_before_every_event_at_its_instant():
    engine = Engine()
    state = {"v": 0}
    seen = []

    def bump():
        state["v"] += 1

    for _ in range(3):
        engine.schedule(10.0, bump)
    engine.observe(10.0, lambda t: seen.append((t, state["v"])))
    engine.run()
    assert seen == [(0.0, 0), (10.0, 0)]
    assert state["v"] == 3


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


def _contended(engine):
    """Three workers sharing one server: queueing, timeouts, inline advances."""
    server = Resource(engine, capacity=1, name="server")

    def worker(i):
        for _ in range(5):
            yield server.acquire()
            yield 3.0 + i
            server.release()
            yield engine.timeout(1.5)

    for i in range(3):
        engine.process(worker(i))


def test_observed_run_drains():
    plain, observed = Engine(), Engine()
    ticks = []
    observed.observe(2.0, ticks.append)
    for engine in (plain, observed):
        _contended(engine)
        engine.run()  # returns: the observer schedules nothing
    assert observed.now == plain.now
    assert observed.kernel_stats() == plain.kernel_stats()
    assert ticks == [2.0 * k for k in range(len(ticks))]
    assert ticks[-1] <= observed.now < ticks[-1] + 2.0


def test_run_until_observes_every_instant_up_to_the_limit():
    engine = Engine()
    ticks = []
    engine.observe(1.0, ticks.append)
    engine.schedule(10.0, lambda: None)
    engine.run(until=2.5)
    assert ticks == [0.0, 1.0, 2.0]
    engine.run()
    assert ticks == [float(k) for k in range(11)]


def test_rejects_non_positive_interval():
    for interval in (0.0, -1.0):
        with pytest.raises(ValueError):
            Engine().observe(interval, lambda t: None)


def test_rejects_a_second_observer():
    engine = Engine()
    engine.observe(1.0, lambda t: None)
    with pytest.raises(SimulationError):
        engine.observe(5.0, lambda t: None)
