"""MetricsTimeline: tumbling windows, phase attribution, serialization."""

import pytest

from repro.telemetry import MetricsTimeline
from repro.telemetry.windows import TIMELINE_SCHEMA


def loaded_timeline():
    tl = MetricsTimeline(window_us=100.0)
    tl.record_latency(10.0, "fault", 5.0)
    tl.record_latency(50.0, "fault", 7.0)
    tl.record_latency(250.0, "fault", 50.0)
    tl.incr(10.0, "requests")
    tl.incr(90.0, "requests", 2.0)
    tl.gauge(20.0, "depth", 3.0)
    tl.gauge(80.0, "depth", 9.0)
    tl.finalize(400.0)
    return tl


class TestWindowing:
    def test_window_assignment(self):
        tl = loaded_timeline()
        snaps = tl.snapshots()
        assert tl.num_windows == 5
        assert [s.index for s in snaps] == [0, 1, 2, 3, 4]
        assert snaps[0].latencies["fault"]["count"] == 2.0
        assert snaps[2].latencies["fault"]["count"] == 1.0

    def test_empty_windows_are_enumerated(self):
        # Window 1 saw nothing; it still appears (an outage window with
        # zero completions is the measurement, not missing data).
        snaps = loaded_timeline().snapshots()
        assert snaps[1].latencies == {}
        assert snaps[1].counters == {}
        assert snaps[4].latencies == {}

    def test_counters_are_per_window_deltas(self):
        snaps = loaded_timeline().snapshots()
        assert snaps[0].counters["requests"] == 3.0
        assert "requests" not in snaps[2].counters

    def test_gauges_keep_last_value_in_window(self):
        snaps = loaded_timeline().snapshots()
        assert snaps[0].gauges["depth"] == 9.0

    def test_window_stats_shape(self):
        stats = loaded_timeline().snapshots()[0].latencies["fault"]
        assert sorted(stats) == ["count", "max", "mean", "p50", "p99", "p999"]
        assert stats["max"] == 7.0
        assert stats["mean"] == pytest.approx(6.0)

    def test_series(self):
        tl = loaded_timeline()
        counts = tl.series("fault", "count")
        assert counts == [2.0, 0.0, 1.0, 0.0, 0.0]
        maxes = tl.series("fault", "max")
        assert maxes[0] == 7.0
        assert maxes[2] == 50.0
        assert len(tl.series("fault", "p999")) == tl.num_windows

    def test_empty_timeline(self):
        tl = MetricsTimeline()
        assert tl.num_windows == 0
        assert tl.snapshots() == []

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            MetricsTimeline(window_us=0.0)


class TestPhases:
    def timeline_with_phases(self):
        tl = MetricsTimeline(window_us=100.0)
        tl.set_phase(0.0, "pre")
        tl.set_phase(150.0, "degraded")
        tl.set_phase(350.0, "post")
        tl.finalize(500.0)
        return tl

    def test_phase_at(self):
        tl = self.timeline_with_phases()
        assert tl.phase_at(0.0) == "pre"
        assert tl.phase_at(149.0) == "pre"
        assert tl.phase_at(150.0) == "degraded"
        assert tl.phase_at(400.0) == "post"

    def test_windows_carry_their_start_phase(self):
        phases = [s.phase for s in self.timeline_with_phases().snapshots()]
        assert phases == ["pre", "pre", "degraded", "degraded", "post", "post"]

    def test_no_phase_before_the_first_transition(self):
        tl = MetricsTimeline(window_us=100.0)
        tl.set_phase(150.0, "serve")
        tl.finalize(300.0)
        assert tl.phase_at(100.0) is None
        assert tl.phase_at(150.0) == "serve"
        snaps = tl.snapshots()
        # Windows carry their start phase: only those starting at or
        # after the first transition are labelled.
        assert [s.phase for s in snaps] == [None, None, "serve", "serve"]
        assert "phase" not in snaps[0].to_json()
        assert snaps[2].to_json()["phase"] == "serve"

    def test_consecutive_identical_phases_dedup(self):
        tl = MetricsTimeline()
        tl.set_phase(0.0, "pre")
        tl.set_phase(10.0, "pre")
        assert tl.phases == [(0.0, "pre")]

    def test_marks_are_kept_in_order(self):
        tl = MetricsTimeline()
        tl.mark(5.0, "crash")
        tl.mark(9.0, "recovered")
        assert tl.marks == [(5.0, "crash"), (9.0, "recovered")]


class TestSerialization:
    def test_document_shape(self):
        doc = loaded_timeline().to_json()
        assert doc["schema"] == TIMELINE_SCHEMA
        assert doc["window_us"] == 100.0
        assert doc["num_windows"] == 5
        assert len(doc["windows"]) == 5
        assert doc["windows"][0]["latencies"]["fault"]["count"] == 2.0
        # Empty sections are omitted, not serialized as {}.
        assert "latencies" not in doc["windows"][1]

    def test_document_is_deterministic(self):
        import json

        a = json.dumps(loaded_timeline().to_json(), sort_keys=True)
        b = json.dumps(loaded_timeline().to_json(), sort_keys=True)
        assert a == b
