"""Self-test of the repo benchmark at tiny scale: ``pytest benchmarks/perf -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    """One tiny, single-rep run of every workload; returns the result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--tiny", "--reps", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_catalogue(spec):
    assert spec["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        workloads.per_layer_metrics()
    )


def _assert_emitted(metrics: dict, names: list) -> None:
    for workload in WORKLOADS:
        for name, unit, _better in names:
            metric = metrics[f"{workload}.{name}"]
            assert metric["unit"] == unit, name
            assert math.isfinite(metric["value"]), name


def test_every_end_to_end_metric_is_emitted_and_nothing_fails(spec, tmp_path):
    out = tmp_path / "doc.json"
    result = _bench("--trace", "0", "--json-out", str(out))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    _assert_emitted(result["metrics"], names)
    assert len(result["metrics"]) == len(names) * len(WORKLOADS)
    doc = json.loads(out.read_text())
    for workload in WORKLOADS:
        assert doc["workloads"][workload]["failed_frac"] == 0
        assert doc["workloads"][workload]["sim_digest"]


def test_every_per_layer_metric_is_emitted_by_a_traced_run(spec, tmp_path):
    result = _bench("--trace", "1", "--out-dir", str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    names = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    _assert_emitted(result["metrics"], names)
    assert len(result["metrics"]) == len(names) * len(WORKLOADS)
    for workload in WORKLOADS:
        trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        profile = trace["profile"]
        assert sum(profile["self_s"].values()) == pytest.approx(profile["total_s"], rel=0.05)
        assert trace["trace_overhead"] > 0


def test_a_point_that_raises_counts_as_failed(monkeypatch):
    import repro.alloc.scenario as scenario

    real = scenario.run_churn

    def flaky(config):
        if config.allocator == "slab":
            raise RuntimeError("injected")
        return real(config)

    monkeypatch.setattr(scenario, "run_churn", flaky)
    runs = run.collect(["alloc-churn"], 1, reps=1, tiny=True, rep_fn=child.run_rep)
    summary = run.summarize(runs["alloc-churn"])
    assert (summary["attempted"], summary["failed"]) == (5, 1)
    assert "RuntimeError: injected" in summary["failures"][0]
    assert summary["sim_digest"] is None


def test_metrics_that_change_on_rep_2_count_as_failed(monkeypatch):
    import repro.sweep.engine as engine

    real = engine.extract_metrics
    calls = []

    def drifting(result):
        metrics = real(result)
        calls.append(None)
        if len(calls) > 2:  # shared-write has two points per rep
            metrics["runtime_us"] += 1.0
        return metrics

    monkeypatch.setattr(engine, "extract_metrics", drifting)
    runs = run.collect(["shared-write"], 1, reps=2, tiny=True, rep_fn=child.run_rep)
    summary = run.summarize(runs["shared-write"])
    assert (summary["attempted"], summary["failed"]) == (4, 2)
    assert all("differ from rep 1" in f for f in summary["failures"])


def test_output_checks_catch_a_broken_breakdown():
    class Stats:
        counters = {"remote_accesses": 2}
        latencies = {"fault": [5.0, 7.0]}

        def breakdown(self, _category):
            return {"fetch": 11.0}

    class Result:
        total_accesses = 10
        stats = Stats()

    errors = child.output_errors(Result(), expected_accesses=12)
    assert len(errors) == 2
    assert "total_accesses" in errors[0] and "fault_path" in errors[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_dispatch_and_digest_match_the_sweep_engine(workload):
    """Same point metrics as ``execute_point``, in this process and a fresh one."""
    from repro.sweep.engine import execute_point

    rep = child.run_rep(workload, 1, tiny=True)
    points = [job[0] for job in child.setup(workload, 1, tiny=True)]
    assert [p["digest"] for p in rep["points"]] == [
        child.metrics_digest([execute_point(point).metrics]) for point in points
    ]
    assert run.spawn_rep(workload, 1, tiny=True)["sim_digest"] == rep["sim_digest"]


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "replay", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
