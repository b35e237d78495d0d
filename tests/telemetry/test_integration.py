"""Telemetry end to end: the kernel contract, fault attribution, sweeps.

Three properties anchor the layer:

1. **No perturbation**: the same run with telemetry on or off executes
   the identical simulated event sequence -- kernel counters, runtime,
   counters and latency summaries are bit-identical.  Neither the
   timeline nor gauge sampling schedules anything.
2. **Fault attribution**: a switch-crash run joins the orchestrator's
   pre/degraded/post phases and the injector's marks to windows, and SLO
   violations land in the degraded phase.
3. **Sweep byte-identity**: per-point timeline documents are pure
   functions of the point, so ``--jobs N`` documents match serial ones
   byte for byte, and telemetry-off documents carry no telemetry keys.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.faults import FaultPlan
from repro.runner import RunnerConfig, run_system
from repro.sweep import SweepSpec, execute_point
from repro.telemetry import evaluate_slos
from repro.workloads import UniformSharingWorkload


def run(telemetry, fault_plan=None, accesses=800):
    workload = UniformSharingWorkload(4, accesses_per_thread=accesses, seed=3)
    config = RunnerConfig(telemetry=telemetry, fault_plan=fault_plan)
    return run_system("mind", workload, 2, config)


class TestKernelContract:
    def test_telemetry_does_not_perturb_the_simulation(self):
        off = run(telemetry=False)
        on = run(telemetry=True)
        assert on.kernel_stats == off.kernel_stats
        assert on.runtime_us == off.runtime_us
        assert on.stats.counters == off.stats.counters
        for category in off.stats.latencies:
            assert on.stats.latency_summary(category) == off.stats.latency_summary(
                category
            )

    def test_disabled_runs_carry_no_timeline(self):
        assert run(telemetry=False).stats.timeline is None

    def test_report_sections_appear_only_with_telemetry(self):
        off_doc = run(telemetry=False).report().to_json()
        on_doc = run(telemetry=True).report().to_json()
        assert off_doc["timeline"] == {}
        assert off_doc["slo"] == {}
        assert on_doc["timeline"]["num_windows"] > 0
        assert on_doc["slo"]["objectives"]


def crash_plan():
    return FaultPlan(seed=7).switch_crash(2_000.0)


class TestFaultAttribution:
    def test_switch_crash_phases_cover_the_timeline(self):
        result = run(telemetry=True, fault_plan=crash_plan(), accesses=1500)
        timeline = result.stats.timeline
        assert [p for _, p in timeline.phases] == ["pre", "degraded", "post"]
        window_phases = {s.phase for s in timeline.snapshots()}
        assert window_phases == {"pre", "degraded", "post"}

    def test_crash_marks_land_on_the_timeline(self):
        result = run(telemetry=True, fault_plan=crash_plan(), accesses=1500)
        labels = [label for _, label in result.stats.timeline.marks]
        assert "switch_crash" in labels
        assert "failover_complete" in labels
        crash_t = dict((l, t) for t, l in result.stats.timeline.marks)
        assert crash_t["switch_crash"] == 2_000.0

    def test_slo_violations_attributed_to_degraded_phase(self):
        result = run(telemetry=True, fault_plan=crash_plan(), accesses=1500)
        report = evaluate_slos(result.stats.timeline)
        violating = [r for r in report.results if r.windows_violating]
        assert violating, "a switch crash must violate some latency objective"
        for r in violating:
            assert set(r.violations_by_phase) <= {"degraded", "post"}
            assert "degraded" in r.violations_by_phase


TELEMETRY_GRID = (
    "system=mind;workload=uniform;blades=2;threads_per_blade=2;"
    "accesses_per_thread=300;shared_pages=64;private_pages_per_thread=32;"
    "num_memory_blades=2;epoch_us=2000;telemetry=true;"
    "arrival_process=none,poisson;arrival_rate_per_thread=0.01"
)


def telemetry_points():
    return SweepSpec.from_grids([TELEMETRY_GRID], seeds=[1]).points()


class TestSweepByteIdentity:
    def test_worker_timeline_matches_in_process(self):
        points = telemetry_points()
        local = [execute_point(p) for p in points]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            remote = list(pool.map(execute_point, points))
        for mine, theirs in zip(local, remote):
            assert mine.metrics == theirs.metrics
            assert json.dumps(mine.timeline, sort_keys=True) == json.dumps(
                theirs.timeline, sort_keys=True
            )

    def test_timeline_document_repeats_exactly(self):
        (point, _) = telemetry_points()
        a = execute_point(point)
        b = execute_point(point)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
            b.to_json(), sort_keys=True
        )

    def test_telemetry_metrics_present(self):
        _, openloop_point = telemetry_points()
        record = execute_point(openloop_point)
        assert record.timeline is not None
        assert record.timeline["schema"] == "repro.telemetry/v1"
        assert record.metrics["telemetry:windows"] > 0
        assert "slo:openloop-p99:compliance" in record.metrics
        assert "latency:openloop:latency:p999" in record.metrics

    def test_telemetry_off_documents_unchanged(self):
        grid = TELEMETRY_GRID.replace("telemetry=true;", "").replace(
            "arrival_process=none,poisson;arrival_rate_per_thread=0.01",
            "arrival_process=none",
        )
        (point,) = SweepSpec.from_grids([grid], seeds=[1]).points()
        record = execute_point(point)
        assert record.timeline is None
        doc = record.to_json()
        assert "timeline" not in doc
        assert not any(
            k.startswith(("slo:", "telemetry:")) for k in record.metrics
        )

    def test_roundtrip_preserves_timeline(self):
        (_, point) = telemetry_points()
        record = execute_point(point)
        clone = type(record).from_json(
            json.loads(json.dumps(record.to_json()))
        )
        assert clone.timeline == record.timeline
        assert clone.metrics == record.metrics
