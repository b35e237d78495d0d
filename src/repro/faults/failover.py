"""In-simulation switch fail-over (Section 4.4), end to end.

MIND consistently replicates the control plane at a backup switch:
translation entries, protection grants and allocator state only change on
metadata operations (syscalls, migrations), so the replica is cheap to keep
and, in this model, always equals the live control plane, so the backup
serves from those very objects.  The coherence directory is deliberately
not replicated.  This module runs the take-over in a *running* cluster:

1. On a crash, the coherence engine's gate closes: new fault transactions
   queue, experiencing the unavailability window as added latency.
2. After a modelled detection delay, the backup installs the replicated
   translation and protection rules (cost proportional to the rule count).
   If metadata changes during the install so that the rules differ from
   the ones just installed, the backup installs again (a catch-up rebuild)
   until they match.  The backup then takes over with an all-Invalid
   directory in its own SRAM (:meth:`InNetworkMmu.take_over`).
3. Compute blades are quiesced: a full-range invalidation flushes every
   dirty page through the backup, so memory blades hold the ground truth
   and the empty directory is *coherent* with blade caches (cold).
   Coherence safety never depends on directory persistence.  (This relies
   on the blades surviving, which matches the paper's scope: it handles
   *switch* failures and defers compute/memory blade fault-tolerance to
   prior work.)
4. The gate opens.  Transactions that were in flight on the dead switch
   come back ``stale`` and are re-issued by the blades; re-faults re-warm
   the directory (the re-fault storm the availability report quantifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from ..switchsim.packets import InvalidationRequest

#: quiesce invalidation spans the whole virtual address space.
FULL_VA_SPAN = 1 << 48


@dataclass
class FailoverConfig:
    """Cost model for the fail-over sequence."""

    #: crash-to-detection delay (heartbeat/BFD timescale).
    detection_us: float = 500.0
    #: fixed backup bring-up cost (boot the pipeline program).
    rebuild_base_us: float = 200.0
    #: per-rule table-install cost on the backup (PCIe writes).
    rule_install_us: float = 2.0
    #: how long after recovery faults are still attributed to the
    #: "degraded" phase (directory re-warm window) before "post".
    degraded_window_us: float = 2_000.0


class FailoverOrchestrator:
    """Runs the Section 4.4 switch fail-over inside the simulation."""

    def __init__(self, cluster, config: Optional[FailoverConfig] = None):
        self.cluster = cluster
        self.config = config or FailoverConfig()
        self.engine = cluster.engine
        self.mmu = cluster.mmu
        self.mmu.coherence.phase_tracking = True
        self.mmu.coherence.set_phase("pre")
        self.crashes = 0
        #: completed outage windows as (start_us, end_us).
        self.outage_windows: List[Tuple[float, float]] = []

    # -- scheduling --------------------------------------------------------

    def crash_at(self, at_us: float) -> None:
        """Schedule a primary-switch crash at simulated time ``at_us``."""
        self.engine.process(self._crash_timer(at_us), name=f"switch-crash@{at_us:g}")

    def _crash_timer(self, at_us: float) -> Generator:
        if at_us > self.engine.now:
            yield at_us - self.engine.now
        yield self.engine.process(self.crash_primary())

    # -- the fail-over sequence --------------------------------------------

    def crash_primary(self) -> Generator:
        """Process generator: crash now, recover on the backup switch."""
        engine = self.engine
        coherence = self.mmu.coherence
        stats = self.cluster.stats
        tracer = engine.tracer
        t_crash = engine.now
        self.crashes += 1
        stats.incr("switch_crashes")
        coherence.set_phase("degraded")
        coherence.begin_outage()
        if tracer.enabled:
            tracer.instant(t_crash, "fault", "switch_crash", track=tracer.track("faults"))
        stats.mark(t_crash, "switch_crash")

        # Detection: heartbeats miss, the backup decides to take over.
        yield self.config.detection_us

        # Install the replicated rules on the backup; the cost scales with
        # the rule count.  Metadata can change while the install is in
        # flight (a live mmap/mprotect syscall); serving from tables that
        # miss it would drop the newer translation/protection entries.
        # Catch up: install again, paying another pass, until the rules
        # are the ones just installed.
        mmu = self.mmu
        installed = (frozenset(mmu.translation_tcam), frozenset(mmu.protection_tcam))
        while True:
            rules = len(installed[0]) + len(installed[1])
            yield self.config.rebuild_base_us + rules * self.config.rule_install_us
            stats.incr("failover_rules_installed", rules)
            latest = (frozenset(mmu.translation_tcam), frozenset(mmu.protection_tcam))
            if latest == installed:
                break
            installed = latest
            stats.incr("failover_catchup_rebuilds")
        mmu.take_over()

        # Quiesce the blades: flush all dirty pages through the backup so
        # memory holds ground truth behind the all-Invalid directory.
        yield from self._quiesce_blades()

        coherence.end_outage()
        t_up = engine.now
        outage = t_up - t_crash
        self.outage_windows.append((t_crash, t_up))
        stats.record_latency("outage_window", outage)
        stats.set_gauge(
            "unavailability_us", sum(e - s for s, e in self.outage_windows)
        )
        stats.incr("failovers_completed")
        if tracer.enabled:
            tracer.complete(
                t_crash, outage, "fault", "failover", track=tracer.track("faults")
            )
        stats.mark(t_up, "failover_complete")
        # Faults stay attributed to "degraded" while the directory re-warms.
        engine.process(self._phase_flip(), name="failover-phase-flip")

    def _quiesce_blades(self) -> Generator:
        """Quiesce invalidation on every compute blade, concurrently.

        Each blade flushes its dirty pages (asynchronously, through the
        backup) and drops everything else; we then wait for the write-backs
        to land so recovery completes with memory current.

        By default the invalidation spans the whole VA space.  A rack node
        in a multi-rack fabric sets ``cluster.quiesce_range`` to the VA
        slice this switch is home for: only pages whose directory died
        with the switch need flushing, so blades keep serving the other
        racks' pages from cache straight through the outage.
        """
        blades = self.cluster.compute_blades
        qrange = getattr(self.cluster, "quiesce_range", None)
        base, span = (0, FULL_VA_SPAN) if qrange is None else qrange
        inval = InvalidationRequest(
            region_base=base,
            region_size=span,
            sharers=frozenset(b.port.port_id for b in blades),
            requester_port=-1,
            target_va=-1,
        )
        procs = [
            self.engine.process(
                blade.handle_invalidation(inval), name=f"quiesce-blade{blade.blade_id}"
            )
            for blade in blades
        ]
        if procs:
            yield self.engine.all_of(procs)
        yield from self.mmu.coherence.drain_writebacks(base, span)

    def _phase_flip(self) -> Generator:
        yield self.config.degraded_window_us
        self.mmu.coherence.set_phase("post")
