"""SLO evaluation: compliance, burn rates, phase attribution."""

import pytest

from repro.telemetry import (
    DEFAULT_OBJECTIVES,
    MetricsTimeline,
    SloObjective,
    evaluate_slos,
)
from repro.telemetry.slo import render_objectives


def objective(threshold=10.0, target=0.9, percentile=99.0):
    return SloObjective("t", "fault", percentile, threshold, target=target)


def timeline(samples, window_us=100.0):
    """samples: list of (t, latency_us)."""
    tl = MetricsTimeline(window_us=window_us)
    for t, v in samples:
        tl.record_latency(t, "fault", v)
    return tl


class TestObjectiveValidation:
    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            SloObjective("x", "fault", 95.0, 10.0)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            SloObjective("x", "fault", 99.0, 10.0, target=0.0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            SloObjective("x", "fault", 99.0, 0.0)

    def test_stat_keys(self):
        assert SloObjective("x", "c", 99.9, 1.0).stat_key == "p999"
        assert SloObjective("x", "c", 100.0, 1.0).stat_key == "max"

    def test_defaults_cover_fault_and_openloop(self):
        categories = {o.category for o in DEFAULT_OBJECTIVES}
        assert categories == {"fault", "openloop:latency"}


class TestEvaluation:
    def test_all_windows_compliant(self):
        tl = timeline([(10.0, 5.0), (150.0, 8.0)])
        (result,) = evaluate_slos(tl, [objective()]).results
        assert result.windows_evaluated == 2
        assert result.windows_violating == 0
        assert result.compliance == 1.0
        assert result.burn_rate == 0.0
        assert result.met

    def test_violating_window_detected(self):
        tl = timeline([(10.0, 5.0), (150.0, 50.0)])
        (result,) = evaluate_slos(tl, [objective()]).results
        assert result.windows_violating == 1
        assert result.violations == [1]
        assert result.compliance == 0.5
        # 50% violating over a 10% budget: burning 5x.
        assert result.burn_rate == pytest.approx(5.0)
        assert not result.met

    def test_empty_windows_not_evaluated(self):
        # A gap of idle windows neither meets nor misses the target.
        tl = timeline([(10.0, 5.0), (950.0, 5.0)])
        (result,) = evaluate_slos(tl, [objective()]).results
        assert result.windows_evaluated == 2

    def test_unknown_category_skipped(self):
        tl = timeline([(10.0, 5.0)])
        missing = SloObjective("nope", "openloop:latency", 99.0, 1.0)
        report = evaluate_slos(tl, [objective(), missing])
        assert [r.objective.name for r in report.results] == ["t"]

    def test_zero_budget_burn_is_infinite_when_violated(self):
        tl = timeline([(10.0, 50.0)])
        (result,) = evaluate_slos(tl, [objective(target=1.0)]).results
        assert result.burn_rate == float("inf")

    def test_phase_attribution(self):
        # A window is attributed to the phase active at its start: the
        # degraded phase begins exactly at window 1's boundary, so both
        # violating windows land in it.
        tl = timeline([(10.0, 5.0), (150.0, 50.0), (250.0, 60.0)])
        tl.set_phase(0.0, "pre")
        tl.set_phase(100.0, "degraded")
        (result,) = evaluate_slos(tl, [objective()]).results
        assert result.violations_by_phase == {"degraded": 2}

    def test_report_met_and_render(self):
        tl = timeline([(10.0, 5.0), (150.0, 50.0)])
        report = evaluate_slos(tl, [objective()])
        assert not report.met
        text = "\n".join(render_objectives(report.to_json()))
        assert "MISSED" in text
        assert "burn" in text

    def test_report_json_shape(self):
        tl = timeline([(10.0, 5.0)])
        doc = evaluate_slos(tl, [objective()]).to_json()
        assert doc["met"] is True
        (obj,) = doc["objectives"]
        assert obj["name"] == "t"
        assert obj["compliance"] == 1.0
        assert obj["violations"] == []
