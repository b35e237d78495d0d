"""Background sampling of switch-resource and queueing gauges.

Fig. 8's occupancy plots are time series of data-plane state: directory
SRAM slots in use, match-action rule counts, queue depths.  The
:class:`GaugeSampler` is a simulation process that polls registered gauge
callables at a fixed simulated-time interval and records each sample as a
stats time series (and, with telemetry on, a timeline gauge).  Trace
exports inject those series as counter tracks
(``Tracer.chrome_trace(counter_series=stats.timeseries)``), so
``chrome://tracing`` renders occupancy alongside spans without a second,
ring-buffered copy of every sample.

The sampler is a perpetual background process, like the Bounded Splitting
epoch loop: it keeps rescheduling itself, so drive the simulation with
``run_until_complete``-style helpers (as the runner and API do) rather
than draining the queue, or call :meth:`GaugeSampler.stop` first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..sim.engine import Engine
    from ..sim.stats import StatsCollector


class GaugeSampler:
    """Samples named scalar gauges every ``interval_us`` of simulated time."""

    def __init__(
        self,
        engine: "Engine",
        stats: "StatsCollector",
        interval_us: float = 50.0,
    ):
        if interval_us <= 0:
            raise ValueError("sample interval must be positive")
        self.engine = engine
        self.stats = stats
        self.interval_us = interval_us
        self._gauges: List[Tuple[str, Callable[[], float]]] = []
        self._running = False
        self.samples_taken = 0

    def add(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge; ``fn`` is polled at every sampling tick."""
        self._gauges.append((name, fn))

    def sample_once(self) -> None:
        """Poll every gauge now (also used for a final end-of-run sample)."""
        now = self.engine.now
        timeline = self.stats.timeline
        for name, fn in self._gauges:
            value = float(fn())
            self.stats.record_point(name, now, value)
            if timeline is not None:
                timeline.gauge(now, name, value)
        self.samples_taken += 1

    def start(self) -> None:
        """Start the background sampling process (idempotent)."""
        if self._running:
            return
        self._running = True
        self.engine.process(self._run(), name="gauge-sampler")

    def stop(self) -> None:
        """Stop after the current tick; the process then drains away."""
        self._running = False

    def _run(self) -> Generator:
        while self._running:
            self.sample_once()
            yield self.interval_us
