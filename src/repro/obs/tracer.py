"""Structured event tracing for simulation runs.

The tracer is a ring-buffered sink of timestamped records that every layer
of the stack (engine, network, switch pipeline, coherence, blades) emits
into.  It is deliberately dependency-free: timestamps are supplied by the
caller (always ``engine.now``, never wall clock) so traces are a pure
function of the run's inputs and the tracer itself is picklable alongside
a :class:`repro.sim.stats.RunResult`.

Zero-cost when disabled: every instrumentation site guards its emission
with a single ``tracer.enabled`` check, and the shared :data:`NULL_TRACER`
keeps that check a plain attribute load on hot paths.

Records can be exported as JSONL (one record per line, stable key order --
the determinism tests compare these byte-for-byte) or in the Chrome
trace-event format that ``chrome://tracing`` / Perfetto load directly.
"""

from __future__ import annotations

import io
import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

#: record phases, mirroring the Chrome trace-event phase letters:
#: ``X`` complete (ts + duration), ``i`` instant, ``C`` counter.
PHASE_COMPLETE = "X"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"

#: a record is ``(ts_us, dur_us, phase, category, name, track, args)``.
TraceRecord = Tuple[float, float, str, str, str, int, Optional[Dict[str, Any]]]


class Tracer:
    """Ring-buffered structured event sink.

    ``capacity`` bounds memory: once full, the oldest records are dropped
    (and counted in :attr:`dropped`).  ``enabled`` is the single switch
    instrumentation sites check before paying any recording cost.
    """

    __slots__ = ("enabled", "capacity", "_records", "_tracks", "dropped")

    def __init__(self, capacity: int = 1 << 16, enabled: bool = True):
        if capacity < 0:
            raise ValueError("tracer capacity must be >= 0")
        self.enabled = enabled
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        self._tracks: Dict[str, int] = {}
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    # -- tracks ----------------------------------------------------------

    def track(self, name: str) -> int:
        """Stable integer id for a named track (a Chrome trace "thread")."""
        tid = self._tracks.get(name)
        if tid is None:
            tid = len(self._tracks)
            self._tracks[name] = tid
        return tid

    # -- recording -------------------------------------------------------

    def _push(self, record: TraceRecord) -> None:
        if self.capacity == 0:
            self.dropped += 1
            return
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    def complete(
        self,
        ts: float,
        dur: float,
        cat: str,
        name: str,
        track: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A span: work named ``name`` occupied ``[ts, ts + dur)``."""
        self._push((ts, dur, PHASE_COMPLETE, cat, name, track, args))

    def instant(
        self,
        ts: float,
        cat: str,
        name: str,
        track: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A zero-duration marker at ``ts``."""
        self._push((ts, 0.0, PHASE_INSTANT, cat, name, track, args))

    def counter(
        self, ts: float, cat: str, name: str, value: float, track: int = 0
    ) -> None:
        """One sample of a named scalar (queue depth, occupancy, ...)."""
        self._push((ts, 0.0, PHASE_COUNTER, cat, name, track, {"value": value}))

    # -- reading ---------------------------------------------------------

    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def categories(self) -> List[str]:
        """Distinct record categories, in first-seen order."""
        seen: Dict[str, None] = {}
        for rec in self._records:
            seen.setdefault(rec[3])
        return list(seen)

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    # -- export ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per record, stable key order (determinism-safe)."""
        out = io.StringIO()
        for ts, dur, ph, cat, name, track, args in self._records:
            obj = {"ts": ts, "dur": dur, "ph": ph, "cat": cat, "name": name, "tid": track}
            if args is not None:
                obj["args"] = args
            out.write(json.dumps(obj, sort_keys=True))
            out.write("\n")
        return out.getvalue()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def chrome_trace(
        self,
        pid: int = 0,
        counter_series: Optional[Dict[str, List[Tuple[float, float]]]] = None,
    ) -> Dict[str, Any]:
        """The run as a Chrome trace-event document.

        The result loads directly in ``chrome://tracing`` or Perfetto;
        timestamps are simulated microseconds, which is also the unit the
        trace-event format expects.

        ``counter_series`` injects externally recorded scalar series
        (e.g. the gauge series ``MindCluster.sample_gauges`` records in
        ``stats.timeseries``) as counter tracks.  Unlike ring-buffered
        counter records, injected series are complete: they never lose
        early samples to ring eviction under heavy span traffic.
        """
        events: List[Dict[str, Any]] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
            for name, tid in sorted(self._tracks.items(), key=lambda kv: kv[1])
        ]
        for ts, dur, ph, cat, name, track, args in self._records:
            ev: Dict[str, Any] = {
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": ts,
                "pid": pid,
                "tid": track,
            }
            if ph == PHASE_COMPLETE:
                ev["dur"] = dur
            if ph == PHASE_INSTANT:
                ev["s"] = "t"  # thread-scoped instant
            if ph == PHASE_COUNTER and args is not None and "value" in args:
                # Chrome labels each counter series by its args key, so
                # key the sample by the counter's own (leaf) name instead
                # of a generic "value" -- one named series per counter.
                ev["args"] = {name.rpartition(".")[2]: args["value"]}
            elif args is not None:
                ev["args"] = args
            events.append(ev)
        for series_name in sorted(counter_series or ()):
            leaf = series_name.rpartition(".")[2]
            for ts, value in counter_series[series_name]:
                events.append(
                    {
                        "name": series_name,
                        "cat": "gauge",
                        "ph": PHASE_COUNTER,
                        "ts": ts,
                        "pid": pid,
                        "tid": 0,
                        "args": {leaf: value},
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(
        self,
        path: str,
        pid: int = 0,
        counter_series: Optional[Dict[str, List[Tuple[float, float]]]] = None,
    ) -> None:
        with open(path, "w") as fh:
            json.dump(
                self.chrome_trace(pid=pid, counter_series=counter_series),
                fh,
                sort_keys=True,
            )


#: The shared disabled tracer: hot paths check ``tracer.enabled`` once and
#: skip all recording.  Capacity 0 so even direct emission stores nothing.
NULL_TRACER = Tracer(capacity=0, enabled=False)
