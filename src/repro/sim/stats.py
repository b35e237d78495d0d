"""Metrics collection for simulation runs.

Every figure in the paper's evaluation is a view over a handful of metric
kinds: counters (invalidation counts, flushed pages), latency samples broken
down by component (Fig. 7), and time series (directory occupancy in Fig. 8).
:class:`StatsCollector` provides exactly those, with cheap recording on the
hot path (plain dict/list appends).

It is also the only writer of the windowed telemetry timeline: a record
that carries its simulated time ``t`` is windowed here too when the run
has telemetry on, so every instrumentation site makes one call.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, MutableSequence, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..telemetry.windows import MetricsTimeline


def _latency_samples() -> "array[float]":
    """Factory for latency sample storage (module-level so the defaultdict
    pickles: RunResult crosses process boundaries in multiprocessing
    sweeps).  ``array('d')`` packs samples 8 bytes apiece instead of a
    PyFloat + list slot each, and feeds ``np.asarray`` without copying
    through a Python-object intermediate."""
    return array("d")


@dataclass
class LatencySummary:
    """Summary statistics of one latency category (microseconds)."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    max: float

    @staticmethod
    def of(samples: Sequence[float]) -> "LatencySummary":
        if not samples:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        if len(samples) == 1:
            # Every percentile of a single sample is the sample; skip the
            # numpy round-trip (singleton categories are common and this
            # runs once per category per sweep point).
            value = float(samples[0])
            return LatencySummary(1, value, value, value, value, value)
        arr = np.asarray(samples, dtype=np.float64)
        # Sort once and take every percentile from the sorted copy: order
        # statistics are invariant under input order, so the values are
        # bit-identical to per-percentile extraction from the raw array.
        # The mean stays on the original order -- numpy's pairwise
        # summation is order-dependent in the last bit, and historical
        # baselines recorded the unsorted-order sum.
        ordered = np.sort(arr)
        p50, p99, p999 = np.percentile(ordered, (50, 99, 99.9))
        return LatencySummary(
            count=len(samples),
            mean=float(arr.mean()),
            p50=float(p50),
            p99=float(p99),
            p999=float(p999),
            max=float(ordered[-1]),
        )


class StatsCollector:
    """Accumulates counters, latency samples and time series for one run."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = defaultdict(int)
        self.latencies: Dict[str, MutableSequence[float]] = defaultdict(
            _latency_samples
        )
        self.timeseries: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        # Plain nested dicts, not defaultdict(lambda: ...): the lambda is
        # unpicklable, and RunResult must pickle for multiprocessing sweeps.
        self.breakdowns: Dict[str, Dict[str, float]] = {}
        #: point-in-time scalars captured at end of run (resource waits,
        #: utilizations); assignment semantics, unlike additive counters.
        self.gauges: Dict[str, float] = {}
        #: windowed telemetry (a :class:`repro.telemetry.MetricsTimeline`)
        #: when the run enabled it; None otherwise.  Only the recording
        #: methods below write it.
        self.timeline: Optional["MetricsTimeline"] = None
        #: memoized per-category summaries, keyed by the sample count at
        #: computation time.  Appends grow the count, so staleness checks
        #: are a len() compare -- no hot-path invalidation bookkeeping.
        self._summary_cache: Dict[str, Tuple[int, LatencySummary]] = {}

    # -- recording (hot path) -------------------------------------------

    def incr(self, name: str, amount: int = 1, t: Optional[float] = None) -> None:
        """Add to a counter; with ``t``, also to its timeline window."""
        self.counters[name] += amount
        if t is not None and self.timeline is not None:
            self.timeline.incr(t, name, amount)

    def record_latency(
        self, category: str, value: float, t: Optional[float] = None
    ) -> None:
        """Keep a latency sample; with ``t``, also window it."""
        self.latencies[category].append(value)
        if t is not None and self.timeline is not None:
            self.timeline.record_latency(t, category, value)

    def record_point(self, series: str, t: float, value: float) -> None:
        """Append a time-series point; it is also the window's gauge."""
        self.timeseries[series].append((t, value))
        if self.timeline is not None:
            self.timeline.gauge(t, series, value)

    def mark(self, t: float, label: str) -> None:
        """Annotate the timeline with an instant (no-op without one)."""
        if self.timeline is not None:
            self.timeline.mark(t, label)

    def set_phase(self, t: float, phase: str) -> None:
        """Announce a service phase to the timeline (no-op without one)."""
        if self.timeline is not None:
            self.timeline.set_phase(t, phase)

    def add_breakdown(self, category: str, component: str, value: float) -> None:
        cat = self.breakdowns.get(category)
        if cat is None:
            cat = self.breakdowns[category] = {}
        cat[component] = cat.get(component, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- reading ---------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def latency_summary(self, category: str) -> LatencySummary:
        """Summary of one category; sorted once and memoized per snapshot.

        Repeated reads (report sections, sweep metric extraction, SLO
        evaluation) reuse the cached summary until new samples arrive.
        """
        samples = self.latencies.get(category)
        if not samples:
            return LatencySummary.of(())
        n = len(samples)
        cached = self._summary_cache.get(category)
        if cached is not None and cached[0] == n:
            return cached[1]
        summary = LatencySummary.of(samples)
        self._summary_cache[category] = (n, summary)
        return summary

    def snapshot(self) -> Dict[str, LatencySummary]:
        """All latency categories summarized, sorted by name.

        The single entry point the report, the sweep metric extraction
        and the windowed telemetry path share: each category is sorted
        once per snapshot (and cached), not once per percentile read.
        """
        return {cat: self.latency_summary(cat) for cat in sorted(self.latencies)}

    def mean_latency(self, category: str) -> float:
        return self.latency_summary(category).mean

    def series(self, name: str) -> List[Tuple[float, float]]:
        return list(self.timeseries.get(name, []))

    def breakdown(self, category: str) -> Dict[str, float]:
        return dict(self.breakdowns.get(category, {}))


@dataclass
class RunResult:
    """Outcome of replaying a workload on one of the systems.

    ``runtime_us`` is the simulated makespan; ``throughput_iops`` counts
    completed memory accesses per simulated second.
    """

    system: str
    workload: str
    num_blades: int
    num_threads: int
    runtime_us: float
    total_accesses: int
    stats: StatsCollector = field(repr=False, default_factory=StatsCollector)
    #: the run's event trace (a :class:`repro.obs.Tracer`) when tracing was
    #: enabled; None otherwise.
    trace: Optional[object] = field(repr=False, default=None)
    #: scheduler-side counters (events executed, fast-path hits) from
    #: :meth:`repro.sim.engine.Engine.kernel_stats` -- consumed by the
    #: repo benchmark (``benchmarks/perf``), never folded into sweep metrics.
    kernel_stats: Dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    @property
    def throughput_iops(self) -> float:
        if self.runtime_us <= 0:
            return 0.0
        return self.total_accesses / (self.runtime_us / 1e6)

    @property
    def performance(self) -> float:
        """Inverse runtime, the paper's scaling metric (Fig. 5)."""
        if self.runtime_us <= 0:
            return 0.0
        return 1.0 / self.runtime_us

    def normalized_to(self, baseline: "RunResult") -> float:
        """Performance normalized to a baseline run, as plotted in Fig. 5."""
        if self.runtime_us <= 0:
            return 0.0
        return baseline.runtime_us / self.runtime_us

    def fraction_of_accesses(self, counter: str) -> float:
        """A counter as a fraction of total accesses (Fig. 6's y-axis)."""
        if self.total_accesses == 0:
            return 0.0
        return self.stats.counter(counter) / self.total_accesses

    def report(self):
        """Digest this run as a :class:`repro.obs.report.RunReport`."""
        # Imported lazily: repro.obs.report imports this module.
        from ..obs.report import RunReport

        return RunReport.from_result(self)
