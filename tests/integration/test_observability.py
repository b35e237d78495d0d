"""End-to-end observability: traces span subsystems, CLI report works."""

import json
import math

import pytest

from repro.__main__ import main
from repro.api import MindSystem
from repro.faults import FaultPlan
from repro.runner import RunnerConfig, run_system
from repro.workloads import UniformSharingWorkload


@pytest.fixture(scope="module")
def traced_result():
    workload = UniformSharingWorkload(
        4,
        accesses_per_thread=400,
        read_ratio=0.4,
        sharing_ratio=0.6,
        shared_pages=300,
        private_pages_per_thread=64,
        seed=11,
        burst=4,
    )
    return run_system("mind", workload, 2, RunnerConfig(trace=True))


def test_trace_covers_at_least_three_subsystems(traced_result):
    cats = set(traced_result.trace.categories())
    assert {"blade", "switch", "coherence"} <= cats


def test_chrome_trace_export_loads(tmp_path, traced_result):
    path = tmp_path / "trace.json"
    traced_result.trace.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert len(events) > 100
    cats = {e["cat"] for e in events if "cat" in e}
    assert {"blade", "switch", "coherence"} <= cats
    # Every event carries the fields chrome://tracing requires
    # (metadata "M" events legitimately have no timestamp).
    for ev in events:
        assert {"name", "ph", "pid", "tid"} <= set(ev)
        if ev["ph"] != "M":
            assert "ts" in ev
        if ev["ph"] == "X":
            assert "dur" in ev


def test_span_components_sum_to_fault_latency(traced_result):
    stats = traced_result.stats
    span_sum = sum(stats.breakdown("fault_path").values())
    e2e = sum(stats.latencies["fault"])
    assert e2e > 0
    assert abs(span_sum - e2e) / e2e < 0.05


def test_span_components_sum_to_fault_latency_across_a_switch_crash():
    # Faults that arrive during the fail-over outage wait at the gate; that
    # wait is its own "outage" component, so the breakdown still sums to
    # the end-to-end latency.
    workload = UniformSharingWorkload(
        4,
        accesses_per_thread=600,
        read_ratio=0.5,
        sharing_ratio=0.6,
        shared_pages=200,
        private_pages_per_thread=64,
        seed=5,
        burst=4,
    )
    plan = FaultPlan(seed=7).switch_crash(500.0)
    stats = run_system("mind", workload, 2, RunnerConfig(fault_plan=plan)).stats
    assert stats.counter("switch_crashes") == 1
    breakdown = stats.breakdown("fault_path")
    assert breakdown["outage"] > 0
    e2e = math.fsum(stats.latencies["fault"])
    assert abs(math.fsum(breakdown.values()) - e2e) <= 1e-9 * e2e


def test_resource_queue_tracks_drain_to_zero(traced_result):
    # Every dequeue re-samples the depth, so a queue that empties by the
    # end of the run shows 0 on its track instead of its last backlog.
    last = {}
    for _ts, _dur, _ph, cat, name, _tid, args in traced_result.trace.records():
        if cat == "resource" and name.endswith(".queue"):
            last[name] = args["value"]
    assert last
    assert all(depth == 0 for depth in last.values()), last


def test_timestamps_are_simulated_not_wall_clock(traced_result):
    # All record timestamps lie within the simulated run window.
    for ts, dur, _ph, _cat, _name, _tid, _args in traced_result.trace.records():
        assert 0.0 <= ts <= traced_result.runtime_us + 1e-9
        assert ts + dur <= traced_result.runtime_us + 1e-9


def test_api_tracing_and_telemetry():
    system = MindSystem(num_compute_blades=2, num_memory_blades=1, trace=True)
    proc = system.spawn_process("obs")
    buf = proc.mmap(1 << 16)
    t0, t1 = proc.spawn_thread(), proc.spawn_thread()
    t0.write(buf, b"x")
    t1.read(buf, 1)
    system.capture_telemetry()
    assert len(system.tracer) > 0
    assert system.stats.counter("pipeline_passes") > 0
    assert any(k.startswith("utilization:") for k in system.stats.gauges)


def test_report_cli_text_and_exports(tmp_path, capsys):
    trace_path = tmp_path / "chrome.json"
    jsonl_path = tmp_path / "trace.jsonl"
    rc = main(
        [
            "report",
            "--blades",
            "2",
            "--accesses",
            "200",
            "--shared-pages",
            "100",
            "--trace-out",
            str(trace_path),
            "--jsonl-out",
            str(jsonl_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault-path breakdown" in out
    assert json.loads(trace_path.read_text())["traceEvents"]
    lines = jsonl_path.read_text().strip().splitlines()
    assert lines and all(json.loads(line) for line in lines)


def test_report_cli_json(capsys):
    rc = main(["report", "--blades", "2", "--accesses", "150", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fault_breakdown_error"] < 0.05
    assert doc["meta"]["num_blades"] == 2
