"""repro.obs: observability for simulation runs.

Three pieces, threaded through the whole stack:

- :class:`Tracer` -- ring-buffered structured event records (spans,
  instants, counters) exportable as JSONL or Chrome trace-event JSON.
- :class:`SpanCursor` -- partitions a transaction's wall time into named
  components, feeding both the tracer and the stats breakdowns (the
  Fig. 7-style latency decompositions).
- :class:`RunReport` -- a per-run digest (latency percentiles, breakdown
  consistency, queueing hotspots, switch peaks), also available via
  ``RunResult.report()`` and ``python -m repro report``.

Everything is deterministic (timestamps come from ``engine.now``) and
zero-cost when disabled (a single ``tracer.enabled`` check per site).
Switch-resource gauges are sampled by an engine observer
(``MindCluster.sample_gauges``), which schedules nothing.
"""

from .spans import SpanCursor
from .tracer import NULL_TRACER, Tracer

__all__ = [
    "NULL_TRACER",
    "RunReport",
    "SpanCursor",
    "Tracer",
]


def __getattr__(name: str):
    # RunReport is loaded lazily: report.py imports repro.sim.stats, which
    # would cycle with sim.engine's import of repro.obs.tracer otherwise.
    if name == "RunReport":
        from .report import RunReport

        return RunReport
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
