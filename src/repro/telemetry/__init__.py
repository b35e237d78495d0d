"""Windowed telemetry: streaming metrics on the simulated-time axis.

Whole-run aggregates (``StatsCollector``) answer "what was the p99" but
not "what was the p99 *while the switch was down*".  This package adds
the time axis:

- :class:`~repro.telemetry.histogram.LogHistogram` -- constant-memory
  log-bucketed (HDR-style) latency histograms with deterministic
  percentile extraction;
- :class:`~repro.telemetry.windows.MetricsTimeline` -- tumbling-window
  snapshots of latencies (p50/p99/p99.9/max), counters and gauges, with
  fault-phase attribution joining the ``repro.faults`` markers to
  windows;
- :mod:`~repro.telemetry.slo` -- SLO objective definitions evaluated
  over the timeline, with error-budget burn-rate accounting.

Everything is pure data keyed by simulated time: the stats collector
windows each timestamped record as it is made, and gauges are sampled
by an engine observer, so telemetry needs no scheduled events and costs
nothing when disabled (the kernel contract of the fast-path work:
telemetry stays off the hot path).  Timelines pickle with the owning
``StatsCollector`` and serialize to byte-stable JSON documents, so sweep
documents carrying windowed series are identical at any ``--jobs``.
"""

from .histogram import LogHistogram
from .slo import DEFAULT_OBJECTIVES, SloObjective, SloReport, evaluate_slos
from .windows import MetricsTimeline, WindowSnapshot

__all__ = [
    "DEFAULT_OBJECTIVES",
    "LogHistogram",
    "MetricsTimeline",
    "SloObjective",
    "SloReport",
    "WindowSnapshot",
    "evaluate_slos",
]
