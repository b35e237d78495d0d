"""Rack assembly: blades + switch wired into a running MIND cluster.

This is the composition root: it builds the event engine, the star network,
the in-network MMU, and the compute/memory blades, and cross-wires the
pieces (blade invalidation handlers into the coherence engine, memory
blades into translation, the cache-drop callback into the controller's
munmap path).  Everything else -- the public API, the workload runner, the
benchmarks -- builds a cluster and goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .blades.compute import ComputeBlade
from .blades.memory import MemoryBlade
from .core.mmu import InNetworkMmu, MindConfig
from .obs.tracer import NULL_TRACER, Tracer
from .sim.engine import Engine
from .sim.network import Network, NetworkConfig, PAGE_SIZE
from .sim.stats import StatsCollector

#: gauge sampling period (simulated us) of traced or telemetry runs.
GAUGE_INTERVAL_US = 100.0


@dataclass
class ClusterConfig:
    """Shape of the emulated rack (paper's testbed by default)."""

    num_compute_blades: int = 2
    num_memory_blades: int = 1
    #: local DRAM cache per compute blade; the paper limits it to 512 MB
    #: (~25 % of workload footprint) to emulate partial disaggregation.
    cache_capacity_pages: int = (512 * 1024 * 1024) // PAGE_SIZE
    #: keep real page payloads (needed by the byte-level API; trace replays
    #: may disable it for speed/memory).
    store_data: bool = True
    mind: MindConfig = field(default_factory=MindConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: enable the observability subsystem: event tracing plus gauge
    #: sampling.  Off by default -- instrumentation sites then cost a
    #: single ``tracer.enabled`` check.
    trace: bool = False
    #: ring-buffer capacity of the tracer (oldest records drop when full).
    trace_capacity: int = 1 << 16
    #: enable windowed telemetry (a :class:`repro.telemetry.MetricsTimeline`
    #: on the stats collector): per-window latency percentiles, counters,
    #: gauges and fault-phase attribution.  Off by default.  On or off,
    #: the simulation executes the same events.
    telemetry: bool = False


class MindCluster:
    """A fully wired rack running MIND."""

    #: set by a multi-rack fabric embedding this cluster as a rack node:
    #: the ``(base, length)`` VA slice this rack's switch is home for.
    #: Fail-over quiesces only this range so other racks keep serving.
    quiesce_range: Optional[tuple] = None

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        engine: Optional[Engine] = None,
        stats: Optional[StatsCollector] = None,
        port_id_base: int = 0,
    ):
        """Stand-alone by default; a multi-rack fabric passes a shared
        ``engine``/``stats`` and a rack-unique ``port_id_base`` to embed
        the cluster as one rack node in its topology graph (port ids key
        every rack's coherence registries, so they must stay globally
        unique across the fabric)."""
        self.config = config or ClusterConfig()
        self.engine = engine if engine is not None else Engine()
        self.stats = stats if stats is not None else StatsCollector()
        if self.config.telemetry and self.stats.timeline is None:
            # Pure data keyed by simulated time: recording computes the
            # window index from the caller's timestamp, so the timeline
            # adds no scheduled events to the run.
            from .telemetry import MetricsTimeline

            self.stats.timeline = MetricsTimeline()
        #: the observability sink; installed on the engine so every layer
        #: (network, pipeline, coherence, blades) reaches it the same way.
        # When embedded as a rack node, an earlier rack may already have
        # installed the fabric-wide tracer; record into the same ring.
        existing = self.engine.tracer
        if engine is not None and existing is not NULL_TRACER:
            self.tracer = existing
        else:
            self.tracer = Tracer(
                capacity=self.config.trace_capacity, enabled=self.config.trace
            )
            self.engine.tracer = self.tracer
        self.network = Network(
            self.engine, self.config.network, port_id_base=port_id_base
        )
        self.mmu = InNetworkMmu(
            self.engine,
            self.network,
            config=self.config.mind,
            stats=self.stats,
        )
        self.memory_blades: List[MemoryBlade] = []
        for i in range(self.config.num_memory_blades):
            blade = MemoryBlade(
                blade_id=i,
                network=self.network,
                capacity_bytes=self.config.mind.memory_blade_capacity,
                store_data=self.config.store_data,
            )
            self.mmu.add_memory_blade(blade)
            self.memory_blades.append(blade)
        self.compute_blades: List[ComputeBlade] = []
        for i in range(self.config.num_compute_blades):
            blade = ComputeBlade(
                blade_id=i,
                engine=self.engine,
                network=self.network,
                datapath=self.mmu.coherence,
                cache_capacity_pages=self.config.cache_capacity_pages,
                stats=self.stats,
            )
            self.compute_blades.append(blade)
            self.mmu.controller.add_compute_blade(i)
        self.mmu.controller.set_drop_cached_range(self._drop_cached_range)
        self.mmu.controller.set_flush_cached_range(self._flush_cached_range)
        self.mmu.controller.set_revoke_domain_range(self._revoke_domain_range)
        #: fault-injection machinery, created lazily by enable_failover /
        #: inject_faults so fault-free runs pay nothing.
        self._failover = None
        self._injectors: List = []
        self.mmu.start()
        if self.config.trace or self.config.telemetry:
            # Sampling only reads state and schedules nothing, so the run
            # executes the same events as an unobserved one.
            self.engine.observe(GAUGE_INTERVAL_US, self.sample_gauges)

    def sample_gauges(self, t: float) -> None:
        """Record the switch-resource and queue-depth gauges Fig. 8 needs."""
        mmu = self.mmu
        record = self.stats.record_point
        record("directory_sram.used", t, float(mmu.directory_sram.used))
        record("tcam.translation", t, float(len(mmu.translation_tcam)))
        record("tcam.protection", t, float(len(mmu.protection_tcam)))
        record("pipeline.recirculations", t, float(mmu.pipeline.recirculations))
        record("pending_txns", t, float(mmu.coherence.pending.occupancy))
        for blade in self.compute_blades:
            record(
                f"blade{blade.blade_id}.kernel_queue",
                t,
                float(blade.kernel_lock.queue_length),
            )

    @property
    def controller(self):
        return self.mmu.controller

    def compute_blade(self, blade_id: int) -> ComputeBlade:
        return self.compute_blades[blade_id]

    def _drop_cached_range(self, base: int, length: int) -> None:
        """munmap support: drop (without write-back) every cached page of a
        freed vma, with its PTEs, from every compute blade."""
        for blade in self.compute_blades:
            for page in blade.cache.pages_in(base, length):
                blade.cache.drop(page.va)

    def _flush_cached_range(self, base: int, length: int) -> None:
        """mprotect support: write dirty pages back to their memory blades
        and drop the range everywhere, so no blade retains a PTE with the
        old (looser) permission.  Runs as a quiesced metadata operation, as
        mprotect on a live range is in real kernels."""
        for blade in self.compute_blades:
            for page in blade.cache.pages_in(base, length):
                if page.dirty and page.data is not None:
                    xlate = self.mmu.address_space.translate(page.va)
                    self.memory_blades[xlate.blade_id].write_page(
                        xlate.pa, bytes(page.data)
                    )
                blade.cache.drop(page.va)

    def _revoke_domain_range(self, pdid: int, base: int, length: int) -> None:
        """Domain revocation: drop only that domain's PTEs everywhere; the
        pages stay resident."""
        for blade in self.compute_blades:
            blade.cache.unmap_domain_range(pdid, base, length)

    # -- fault injection -------------------------------------------------------

    def enable_failover(self, config=None):
        """Arm the Section 4.4 fail-over path: stand a backup switch by
        that installs the replicated control plane when the primary
        crashes.  Idempotent; returns the
        :class:`~repro.faults.failover.FailoverOrchestrator`."""
        if self._failover is None:
            from .faults.failover import FailoverOrchestrator

            self._failover = FailoverOrchestrator(self, config)
        return self._failover

    @property
    def failover(self):
        return self._failover

    def inject_faults(self, plan):
        """Arm a :class:`~repro.faults.plan.FaultPlan` on this cluster.

        Link-loss windows are installed immediately; timed events (blade
        faults, CPU stalls, switch crashes) are scheduled as simulation
        processes.  Returns the armed injector."""
        from .faults.injector import FaultInjector

        injector = FaultInjector(self, plan)
        injector.start()
        self._injectors.append(injector)
        return injector

    # -- observability ---------------------------------------------------------

    def capture_telemetry(self) -> None:
        """Stash end-of-run switch-resource peaks and queueing telemetry in
        the stats collector, so :meth:`RunResult.report` works from stats
        alone (and survives pickling).  Idempotent: counters are assigned,
        not accumulated."""
        stats = self.stats
        stats.counters["directory_peak"] = self.mmu.directory_sram.peak_used
        stats.counters["directory_final"] = len(self.mmu.directory)
        stats.counters["match_action_rules"] = self.mmu.match_action_rules()["total"]
        stats.counters["pipeline_passes"] = self.mmu.pipeline.passes
        stats.counters["recirculations"] = self.mmu.pipeline.recirculations
        stats.counters["pending_table_peak"] = self.mmu.coherence.pending.peak
        dropped = self.network.total_packets_dropped()
        if dropped:
            stats.counters["link_packets_dropped"] = dropped
            stats.counters["link_bytes_dropped"] = self.network.total_bytes_dropped()
        refused = sum(b.requests_refused for b in self.memory_blades)
        if refused:
            stats.counters["blade_requests_refused"] = refused
        if self.mmu.control_cpu.stalls:
            stats.counters["control_cpu_stalls"] = self.mmu.control_cpu.stalls
            stats.set_gauge("control_cpu_stall_us", self.mmu.control_cpu.stall_us)
        galloc = self.mmu.allocator
        if galloc.modeled:
            # Allocator-axis telemetry (only when the axis is set, so the
            # default run's metric set stays bit-identical).
            from .alloc import alloc_gauges

            stats.counters["alloc_ops"] = self.mmu.control_cpu.alloc_ops
            stats.set_gauge("alloc:cpu_us", self.mmu.control_cpu.alloc_us)
            for name, value in alloc_gauges([galloc.raw_telemetry()]).items():
                stats.set_gauge(name, value)
            sram = self.mmu.alloc_metadata_sram
            if sram is not None:
                stats.set_gauge("alloc:metadata_peak_bytes", float(sram.peak_used))
                stats.set_gauge(
                    "alloc:metadata_utilization", sram.utilization()
                )
                if sram.overflows:
                    stats.counters["alloc_metadata_overflows"] = sram.overflows
        for resource in self.engine.resources:
            if resource.total_wait_us:
                stats.set_gauge(f"wait_us:{resource.name}", resource.total_wait_us)
            utilization = resource.utilization()
            if utilization:
                stats.set_gauge(f"utilization:{resource.name}", utilization)
        if self.config.trace or self.config.telemetry:
            self.sample_gauges(self.engine.now)
        timeline = stats.timeline
        if timeline is not None:
            timeline.finalize(self.engine.now)

    # -- execution helpers ----------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        return self.engine.run(until=until)

    def run_process(self, gen, name: Optional[str] = None):
        return self.engine.run_process(gen, name)

    def run_all(self, gens: List) -> List:
        """Run several processes concurrently to completion (a barrier)."""
        procs = [self.engine.process(g) for g in gens]
        barrier = self.engine.all_of(procs)
        return self.engine.run_until_complete(barrier)
