"""Tumbling-window metric timelines on the simulated clock.

A :class:`MetricsTimeline` partitions simulated time into fixed tumbling
windows of ``window_us`` and accumulates, per window:

- latency samples per category, into :class:`~.histogram.LogHistogram`
  buckets (constant memory, deterministic p50/p99/p99.9/max);
- counters (deltas per window) and gauges (last-written value);
- fault-phase attribution: the ``pre``/``degraded``/``post`` service
  phases the fail-over orchestrator announces are joined to windows, so
  a report can show exactly which windows a crash degraded;
- instant marks (fault-injector events), kept as a flat annotated list.

There is **no flushing process**: the window index is computed from the
caller-supplied timestamp at record time (``int(t / window_us)``), so the
timeline schedules nothing and adds zero events to the simulation.  Its
only writer is :class:`~repro.sim.stats.StatsCollector`, and its gauge
samples come from an engine observer that schedules nothing either
(:meth:`repro.sim.engine.Engine.observe`), so the same run with
telemetry on or off executes the identical event sequence.  That is the
kernel contract the fast-path work established: observability must not
change the simulated world.

Snapshots enumerate *every* window from 0 to the finalize time,
including empty ones -- an empty window during an outage is the
measurement ("no request completed for 800 us"), not missing data.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .histogram import LogHistogram

#: schema tag stamped on serialized timeline documents.
TIMELINE_SCHEMA = "repro.telemetry/v1"

#: tumbling-window width of every run's timeline (simulated us).
WINDOW_US = 500.0

#: percentiles every window snapshot reports, in rank order.
WINDOW_PERCENTILES = (50.0, 99.0, 99.9)

#: series() statistic names -> percentile ranks.
_PERCENTILE_STATS = {"p50": 50.0, "p99": 99.0, "p999": 99.9}


@dataclass
class WindowSnapshot:
    """One tumbling window's digest (plain data, JSON-shaped)."""

    index: int
    t_start: float
    t_end: float
    #: service phase active at the window start (None without tracking).
    phase: Optional[str]
    #: category -> {count, mean, p50, p99, p999, max}.
    latencies: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: counter name -> delta accumulated inside this window.
    counters: Dict[str, float] = field(default_factory=dict)
    #: gauge name -> last value written inside this window.
    gauges: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "window": self.index,
            "t_start": self.t_start,
            "t_end": self.t_end,
        }
        if self.phase is not None:
            doc["phase"] = self.phase
        if self.latencies:
            doc["latencies"] = self.latencies
        if self.counters:
            doc["counters"] = self.counters
        if self.gauges:
            doc["gauges"] = self.gauges
        return doc


class MetricsTimeline:
    """Windowed latency/counter/gauge accumulator for one run."""

    def __init__(self, window_us: float = WINDOW_US):
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = float(window_us)
        #: category -> window index -> histogram.
        self._latencies: Dict[str, Dict[int, LogHistogram]] = {}
        #: counter name -> window index -> accumulated delta.
        self._counters: Dict[str, Dict[int, float]] = {}
        #: gauge name -> window index -> last value.
        self._gauges: Dict[str, Dict[int, float]] = {}
        #: (t, label) instants from the fault injector / orchestrator.
        self.marks: List[Tuple[float, str]] = []
        #: (t, phase) service-phase transitions, in announcement order.
        self.phases: List[Tuple[float, str]] = []
        #: high-water mark of observed simulated time.
        self._t_end = 0.0

    # -- recording (called from instrumentation sites) -------------------

    def _window(self, t: float) -> int:
        if t > self._t_end:
            self._t_end = t
        return int(t / self.window_us)

    def record_latency(self, t: float, category: str, value: float) -> None:
        windows = self._latencies.get(category)
        if windows is None:
            windows = self._latencies[category] = {}
        w = self._window(t)
        hist = windows.get(w)
        if hist is None:
            hist = windows[w] = LogHistogram()
        hist.record(value)

    def incr(self, t: float, name: str, amount: float = 1.0) -> None:
        windows = self._counters.get(name)
        if windows is None:
            windows = self._counters[name] = {}
        w = self._window(t)
        windows[w] = windows.get(w, 0.0) + amount

    def gauge(self, t: float, name: str, value: float) -> None:
        windows = self._gauges.get(name)
        if windows is None:
            windows = self._gauges[name] = {}
        windows[self._window(t)] = value

    def mark(self, t: float, label: str) -> None:
        self._window(t)
        self.marks.append((t, label))

    def set_phase(self, t: float, phase: str) -> None:
        if self.phases and self.phases[-1][1] == phase:
            return
        self._window(t)
        self.phases.append((t, phase))

    def finalize(self, t: float) -> None:
        """Extend the timeline's horizon to the run's end time."""
        if t > self._t_end:
            self._t_end = t

    # -- reading ---------------------------------------------------------

    @property
    def num_windows(self) -> int:
        if self._t_end <= 0.0:
            return 0
        return int(self._t_end / self.window_us) + 1

    def phase_at(self, t: float) -> Optional[str]:
        """Service phase active at time ``t`` (None before the first
        transition, or if phases were never tracked)."""
        pos = bisect.bisect_right([pt for pt, _ in self.phases], t) - 1
        return self.phases[pos][1] if pos >= 0 else None

    def categories(self) -> List[str]:
        return sorted(self._latencies)

    def snapshots(self) -> List[WindowSnapshot]:
        """Every window from 0 to the horizon, empty windows included."""
        out: List[WindowSnapshot] = []
        for w in range(self.num_windows):
            t_start = w * self.window_us
            snap = WindowSnapshot(
                index=w,
                t_start=t_start,
                t_end=t_start + self.window_us,
                phase=self.phase_at(t_start),
            )
            for cat in sorted(self._latencies):
                hist = self._latencies[cat].get(w)
                if hist is None or hist.count == 0:
                    continue
                p50, p99, p999 = hist.percentiles(WINDOW_PERCENTILES)
                snap.latencies[cat] = {
                    "count": float(hist.count),
                    "mean": hist.mean,
                    "p50": p50,
                    "p99": p99,
                    "p999": p999,
                    "max": hist.max,
                }
            for name in sorted(self._counters):
                delta = self._counters[name].get(w)
                if delta is not None:
                    snap.counters[name] = delta
            for name in sorted(self._gauges):
                value = self._gauges[name].get(w)
                if value is not None:
                    snap.gauges[name] = value
            out.append(snap)
        return out

    def series(self, category: str, stat: str = "p999") -> List[float]:
        """Per-window values of one latency statistic (0.0 where empty)."""
        windows = self._latencies.get(category, {})
        out = []
        for w in range(self.num_windows):
            hist = windows.get(w)
            if hist is None or hist.count == 0:
                out.append(0.0)
            elif stat == "count":
                out.append(float(hist.count))
            elif stat == "mean":
                out.append(hist.mean)
            elif stat == "max":
                out.append(hist.max)
            else:
                out.append(hist.percentile(_PERCENTILE_STATS[stat]))
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Byte-stable document (all keys sorted or enumeration-ordered)."""
        return {
            "schema": TIMELINE_SCHEMA,
            "window_us": self.window_us,
            "num_windows": self.num_windows,
            "horizon_us": self._t_end,
            "windows": [snap.to_json() for snap in self.snapshots()],
            "marks": [[t, label] for t, label in self.marks],
            "phases": [[t, phase] for t, phase in self.phases],
        }
