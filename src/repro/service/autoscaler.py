"""A deterministic queue-depth autoscaler for the serving pool.

Reactive and boring on purpose: every ``interval_us`` it samples the
pool's queue depth per (active + in-flight) slot, and after ``samples``
consecutive readings above/below the thresholds -- plus a cooldown -- it
adds or retires one slot.  Scale-up is *not* instantaneous: the new
serving thread takes ``slot_bringup_us`` to come up (thread placement on
a possibly-new blade, cache warm-up), modelling the window where demand
has already arrived but capacity hasn't.  Thread placement changes no
switch table, so a scale-up racing a switch fail-over's table install
costs the backup no catch-up rebuild.

Everything is a pure function of simulated time and queue state -- no
randomness -- so scaling decisions are byte-identical across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Tuple


@dataclass
class AutoscalerConfig:
    min_slots: int = 1
    max_slots: int = 8
    interval_us: float = 500.0
    #: scale up when queue depth per slot stays above this...
    scale_up_depth: float = 3.0
    #: ...and down when it stays below this.
    scale_down_depth: float = 0.25
    #: consecutive over/under samples required before acting.
    samples: int = 2
    #: intervals to hold off after any scaling action.
    cooldown_intervals: int = 4
    #: thread placement + warm-up delay before a new slot serves.
    slot_bringup_us: float = 250.0

    def validate(self) -> "AutoscalerConfig":
        if not 1 <= self.min_slots <= self.max_slots:
            raise ValueError("need 1 <= min_slots <= max_slots")
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError("scale_down_depth must be below scale_up_depth")
        if self.interval_us <= 0 or self.slot_bringup_us < 0:
            raise ValueError("intervals/bring-up must be positive")
        return self


@dataclass
class Autoscaler:
    """Drives :class:`~repro.service.pool.ServingPool` capacity online."""

    engine: Any
    pool: Any
    process: Any  # MindProcess -- spawn_thread() places new slots
    stats: Any
    config: AutoscalerConfig = field(default_factory=AutoscalerConfig)

    def __post_init__(self):
        self.config.validate()
        #: (t_us, "up" | "down", blade_id | None) in decision order.
        self.events: List[Tuple[float, str, object]] = []
        self._over = 0
        self._under = 0
        self._cooldown = 0
        self._pending_adds = 0

    def run(self) -> Generator:
        """The perpetual control loop (start with ``engine.process``)."""
        cfg = self.config
        while True:
            yield cfg.interval_us
            if self._cooldown > 0:
                self._cooldown -= 1
                continue
            capacity = self.pool.active_slots + self._pending_adds
            depth = self.pool.queue_depth / max(1, capacity)
            if depth >= cfg.scale_up_depth:
                self._over += 1
                self._under = 0
            elif depth <= cfg.scale_down_depth:
                self._under += 1
                self._over = 0
            else:
                self._over = self._under = 0
            if self._over >= cfg.samples and capacity < cfg.max_slots:
                self._over = 0
                self._cooldown = cfg.cooldown_intervals
                self._pending_adds += 1
                self.engine.process(self._bring_up(), name="svc.scale_up")
            elif self._under >= cfg.samples and capacity > cfg.min_slots:
                self._under = 0
                self._cooldown = cfg.cooldown_intervals
                self._retire()

    def _bring_up(self) -> Generator:
        yield self.config.slot_bringup_us
        # May race an in-flight fail-over table install; placing a thread
        # changes no table, so the install needs no catch-up pass.
        thread = self.process.spawn_thread()
        self.pool.add_slot(thread)
        self._pending_adds -= 1
        t = self.engine.now
        self.events.append((t, "up", thread.blade_id))
        self.stats.incr("svc:scale_ups")
        self.stats.mark(t, f"scale_up:blade{thread.blade_id}")

    def _retire(self) -> None:
        if not self.pool.retire_slot():
            return
        t = self.engine.now
        self.events.append((t, "down", None))
        self.stats.incr("svc:scale_downs")
        self.stats.mark(t, "scale_down")
