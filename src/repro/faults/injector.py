"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector is itself a collection of simulation processes: link fault
windows are armed up front (the links gate per-packet behaviour on the sim
clock), while timed events -- blade slowdowns/outages, control-CPU stalls,
and the switch crash -- each get a small scheduler process.  Determinism:
every lossy link window receives its own child generator derived from the
plan seed and a stable stream index, so event interleaving never perturbs
the drop sequence of an unrelated link.
"""

from __future__ import annotations

from typing import Generator

from ..sim.network import LinkFault
from ..sim.rng import derive_rng, make_rng
from .plan import (
    BladeOutage,
    BladeSlowdown,
    ControlCpuStall,
    FaultPlan,
    LinkLossWindow,
    SwitchCrash,
)


class FaultInjector:
    """Arms a fault plan on a :class:`~repro.cluster.MindCluster`."""

    def __init__(self, cluster, plan: FaultPlan):
        plan.validate()
        self.cluster = cluster
        self.plan = plan
        self.engine = cluster.engine
        self._root_rng = make_rng(plan.seed)
        self._started = False
        #: number of fault events armed/scheduled (for reporting).
        self.events_armed = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm every event in the plan.  Idempotent."""
        if self._started:
            return
        self._started = True
        stream = 0
        for ev in self.plan.events:
            stream += 1
            if isinstance(ev, LinkLossWindow):
                self._arm_link_window(ev, stream)
            elif isinstance(ev, BladeSlowdown):
                self.engine.process(
                    self._run_blade_slow(ev), name=f"fault-slow-mem{ev.blade_id}"
                )
            elif isinstance(ev, BladeOutage):
                self.engine.process(
                    self._run_blade_outage(ev), name=f"fault-crash-mem{ev.blade_id}"
                )
            elif isinstance(ev, ControlCpuStall):
                self.engine.process(self._run_cpu_stall(ev), name="fault-cpu-stall")
            elif isinstance(ev, SwitchCrash):
                failover = self.cluster.enable_failover()
                failover.crash_at(ev.at_us)
            self.events_armed += 1

    # -- link windows ------------------------------------------------------

    def _arm_link_window(self, ev: LinkLossWindow, stream: int) -> None:
        links = self.cluster.network.links(
            port_name=ev.port, direction=ev.direction
        )
        for idx, link in enumerate(links):
            # One independent child stream per (event, link): the drop
            # sequence on a link depends only on plan seed and its own
            # traffic, never on other links' interleaving.
            rng = (
                derive_rng(make_rng(self.plan.seed), stream * 1_000 + idx)
                if ev.drop_prob
                else None
            )
            link.install_fault(
                LinkFault(
                    start_us=ev.start_us,
                    end_us=ev.end_us,
                    drop_prob=ev.drop_prob,
                    extra_delay_us=ev.extra_delay_us,
                    rng=rng,
                )
            )

    # -- timed processes ---------------------------------------------------

    def _mark(self, label: str) -> None:
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                self.engine.now, "fault", label, track=tracer.track("faults")
            )
        # The same markers annotate the windowed timeline, so reports
        # can join injector events to the windows they landed in.
        self.cluster.stats.mark(self.engine.now, label)

    def _run_blade_slow(self, ev: BladeSlowdown) -> Generator:
        blade = self.cluster.memory_blades[ev.blade_id]
        if ev.start_us > self.engine.now:
            yield ev.start_us - self.engine.now
        blade.slow_factor = ev.factor
        self._mark(f"blade_slow:mem{ev.blade_id}:x{ev.factor:g}")
        self.cluster.stats.incr("blade_slowdowns")
        if ev.end_us > self.engine.now:
            yield ev.end_us - self.engine.now
        blade.slow_factor = 1.0
        self._mark(f"blade_slow_end:mem{ev.blade_id}")

    def _run_blade_outage(self, ev: BladeOutage) -> Generator:
        blade = self.cluster.memory_blades[ev.blade_id]
        if ev.start_us > self.engine.now:
            yield ev.start_us - self.engine.now
        blade.pause()
        self._mark(f"blade_pause:mem{ev.blade_id}")
        self.cluster.stats.incr("blade_outages")
        if ev.end_us > self.engine.now:
            yield ev.end_us - self.engine.now
        blade.resume()
        self._mark(f"blade_resume:mem{ev.blade_id}")

    def _run_cpu_stall(self, ev: ControlCpuStall) -> Generator:
        cpu = self.cluster.mmu.control_cpu
        if ev.at_us > self.engine.now:
            yield ev.at_us - self.engine.now
        self._mark(f"cpu_stall:{ev.duration_us:g}us")
        yield self.engine.process(cpu.stall(ev.duration_us))
        self._mark("cpu_stall_end")
