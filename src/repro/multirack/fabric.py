"""The assembled multi-rack system: blades, routers, fabric services.

The paper's design is rack-scale: one programmable switch owns all memory
management.  Section 8 sketches the next step -- "a shift similar to the
shift from single node CPUs to multi-node NUMA architectures" -- where the
global address space spans racks.  This package implements that extension
with a *home-rack* design over the :mod:`~repro.multirack.topology` graph:

- The global VA space is range-partitioned across racks
  (:class:`~repro.multirack.topology.ShardMap`); each rack's switch is the
  **home** for its slice: it runs translation, protection and the
  coherence directory for those addresses, exactly as in the single-rack
  system.
- A compute blade's fault on a remote-homed address is forwarded over the
  spine to the home rack's switch, which executes the transaction
  treating the remote blade as a sharer reachable through a
  :class:`~repro.multirack.topology.SpineProxyPort`.  Invalidations of
  cross-rack sharers likewise traverse the spine.

The cost structure this produces: intra-rack faults at the paper's
~10 us, cross-rack faults two spine crossings dearer (request + reply),
and cross-rack write sharing correspondingly more expensive -- quantified
in ``benchmarks/test_extension_multirack.py`` and swept to 32 racks by
the ``multirack-scale`` preset.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Union

from ..blades.compute import ComputeBlade
from ..blades.memory import MemoryBlade
from ..core.coherence import CoherenceProtocol
from ..core.mmu import InNetworkMmu
from ..core.vma import PermissionClass
from ..sim.network import Port
from ..switchsim.packets import MemRequest
from .config import MultiRackConfig
from .topology import SpineProxyPort, Topology

AnyPort = Union[Port, SpineProxyPort]


class RackRouter:
    """A compute blade's data path in the multi-rack fabric.

    Routes every operation to the *home rack* of its virtual address and
    presents the right port (real or spine proxy) so the home switch's
    unchanged protocol code charges the right wire latency.  Proxy ports
    are created lazily on a blade's first transaction against a remote
    rack: at thousands of blades the all-pairs proxy matrix would dominate
    construction, and laziness is deterministic because creation follows
    the (seeded) simulated execution order.
    """

    def __init__(self, fabric: "MultiRackFabric", home_rack: int):
        self.fabric = fabric
        self.home_rack = home_rack
        #: rack index -> the port this blade is known by on that rack.
        self.ports: Dict[int, AnyPort] = {}
        self._port: Optional[Port] = None
        self._handler: Optional[Callable] = None
        self._serve_page: Optional[Callable] = None

    # ComputeBlade.__init__ calls this with its real (home-rack) port.
    def register_compute_blade(self, port, handler, serve_page=None) -> None:
        self._port = port
        self._handler = handler
        self._serve_page = serve_page
        self.ports[self.home_rack] = port
        self.fabric.rack_coherence(self.home_rack).register_compute_blade(
            port, handler, serve_page
        )

    def port_for(self, rack: int) -> AnyPort:
        """This blade's port on ``rack``, registering a spine proxy on
        first use."""
        port = self.ports.get(rack)
        if port is None:
            real = self._port
            assert real is not None, "blade not registered with its router yet"
            port = self.fabric.topology.spine_proxy(real, self.home_rack, rack)
            self.ports[rack] = port
            self.fabric.rack_coherence(rack).register_compute_blade(
                port, self._handler, self._serve_page
            )
        return port

    def handle_fault(self, req: MemRequest) -> Generator:
        rack = self.fabric.shard.home_rack(req.va)
        if rack != self.home_rack:
            self.fabric.stats.incr("cross_rack_faults")
            self.port_for(rack)  # the home switch must know our proxy
            return self._timed_fault(req, rack, "fault:cross")
        self.fabric.stats.incr("intra_rack_faults")
        return self._timed_fault(req, rack, "fault:intra")

    def _timed_fault(self, req: MemRequest, rack: int, category: str) -> Generator:
        # Record locality-split latency on top of the home switch's own
        # fault accounting: the intra/cross crossover is the headline
        # multi-rack result.
        engine = self.fabric.engine
        t0 = engine.now
        result = yield from self.fabric.rack_coherence(rack).handle_fault(req)
        self.fabric.stats.record_latency(category, engine.now - t0)
        return result

    def flush_page_async(self, src_port, page_va: int, data):
        rack = self.fabric.shard.home_rack(page_va)
        return self.fabric.rack_coherence(rack).flush_page_async(
            self.port_for(rack), page_va, data
        )

    def flush_page(self, src_port, page_va: int, data) -> Generator:
        rack = self.fabric.shard.home_rack(page_va)
        return self.fabric.rack_coherence(rack).flush_page(
            self.port_for(rack), page_va, data
        )


class MultiRackFabric:
    """The assembled multi-rack system over an explicit topology graph."""

    def __init__(self, config: Optional[MultiRackConfig] = None):
        self.config = (config or MultiRackConfig()).validate()
        cfg = self.config
        self.topology = Topology(cfg)
        self.engine = self.topology.engine
        self.stats = self.topology.stats
        self.shard = self.topology.shard
        if cfg.telemetry and self.stats.timeline is None:
            from ..telemetry import MetricsTimeline

            self.stats.timeline = MetricsTimeline()
        self.memory_blades: List[MemoryBlade] = [
            blade
            for node in self.topology.racks
            for blade in node.cluster.memory_blades
        ]
        # Compute blades: real port at the home rack, lazy proxies
        # elsewhere.  Every rack cluster shares the *fabric-wide* blade
        # list: any blade may cache any rack's pages, so rack-local
        # munmap/mprotect drops and fail-over quiesces must reach them
        # all -- sharing the list makes the cluster's existing callbacks
        # fabric-correct with no overriding.
        self.compute_blades: List[ComputeBlade] = []
        self.routers: List[RackRouter] = []
        next_id = 0
        for r, node in enumerate(self.topology.racks):
            node.cluster.compute_blades = self.compute_blades
            node.cluster.quiesce_range = self.shard.rack_range(r)
            for _c in range(cfg.compute_blades_per_rack):
                router = RackRouter(self, home_rack=r)
                blade = ComputeBlade(
                    blade_id=next_id,
                    engine=self.engine,
                    network=node.network,
                    datapath=router,
                    cache_capacity_pages=cfg.cache_capacity_pages,
                    stats=self.stats,
                )
                blade.home_rack = r
                self.compute_blades.append(blade)
                self.routers.append(router)
                next_id += 1
        # One global protection domain namespace: processes exist in every
        # rack's controller, sharing a fabric-wide pdid.
        self._next_pdid = 1
        self._rack_pids: Dict[int, List[int]] = {}

    # -- graph access --------------------------------------------------------

    @property
    def racks(self) -> List[InNetworkMmu]:
        """Rack index -> that rack's switch MMU (the home data plane)."""
        return [node.mmu for node in self.topology.racks]

    @property
    def clusters(self) -> List:
        return [node.cluster for node in self.topology.racks]

    def rack_coherence(self, rack: int) -> CoherenceProtocol:
        return self.topology.racks[rack].coherence

    # -- fabric-level process/memory management -----------------------------

    def spawn_process(self, name: str = "proc") -> int:
        """Create a fabric-wide process; returns its global PDID."""
        pdid = self._next_pdid
        self._next_pdid += 1
        pids = []
        for mmu in self.racks:
            task = mmu.controller.sys_exec(f"{name}@{pdid}")
            pids.append(task.pid)
        self._rack_pids[pdid] = pids
        return pdid

    def mmap(self, pdid: int, length: int,
             perm: PermissionClass = PermissionClass.READ_WRITE,
             rack: Optional[int] = None) -> int:
        """Allocate on the least-loaded rack (or a named one); returns VA.

        The vma's home rack installs protection under the *global* pdid so
        any rack's compute blades can fault on it.
        """
        mmus = self.racks
        if rack is None:
            rack = min(
                range(len(mmus)),
                key=lambda r: sum(
                    mmus[r].allocator.allocated_per_blade().values()
                ),
            )
        local_pid = self._rack_pids[pdid][rack]
        return mmus[rack].controller.sys_mmap(
            local_pid, length, perm, pdid=pdid
        )

    def rack_of(self, va: int) -> int:
        return int(va) // self.config.rack_va_span

    # -- fail-over ------------------------------------------------------------

    def enable_rack_failover(self, rack: int, config=None):
        """Arm Section 4.4 fail-over for one rack's switch.

        The orchestrator is scoped to that rack's cluster node: its
        outage gate only blocks transactions homed there, and the blade
        quiesce is range-limited to the rack's VA slice
        (``cluster.quiesce_range``), so the other racks keep serving
        straight through the outage.
        """
        return self.topology.racks[rack].cluster.enable_failover(config)

    # -- observability --------------------------------------------------------

    def capture_telemetry(self) -> None:
        """Fabric-wide end-of-run telemetry with bounded cardinality.

        At thousands of blades the per-resource wait/utilization gauges
        the single-rack cluster emits would explode the metrics namespace
        (and the sweep documents), so the fabric aggregates instead:
        switch counters summed across racks (in rack order) plus per-tier
        link totals from the topology graph.  Idempotent: counters are
        assigned.
        """
        stats = self.stats
        nodes = self.topology.racks
        mmus = [node.mmu for node in nodes]
        stats.counters["directory_peak"] = sum(m.directory_sram.peak_used for m in mmus)
        stats.counters["directory_final"] = sum(len(m.directory) for m in mmus)
        stats.counters["match_action_rules"] = sum(
            m.match_action_rules()["total"] for m in mmus
        )
        stats.counters["pipeline_passes"] = sum(m.pipeline.passes for m in mmus)
        stats.counters["recirculations"] = sum(m.pipeline.recirculations for m in mmus)
        stats.counters["pending_table_peak"] = max(m.coherence.pending.peak for m in mmus)
        stalls = sum(m.control_cpu.stalls for m in mmus)
        if stalls:
            stats.counters["control_cpu_stalls"] = stalls
            stats.set_gauge(
                "control_cpu_stall_us", sum(m.control_cpu.stall_us for m in mmus)
            )
        refused = sum(
            b.requests_refused for node in nodes for b in node.cluster.memory_blades
        )
        if refused:
            stats.counters["blade_requests_refused"] = refused
        if any(m.allocator.modeled for m in mmus):
            # Allocator-axis telemetry: raw byte/step tallies sum across
            # racks, fragmentation fractions are recomputed from the sums.
            from ..alloc import alloc_gauges

            stats.counters["alloc_ops"] = sum(m.control_cpu.alloc_ops for m in mmus)
            stats.set_gauge("alloc:cpu_us", sum(m.control_cpu.alloc_us for m in mmus))
            merged = alloc_gauges([m.allocator.raw_telemetry() for m in mmus])
            for name, value in merged.items():
                stats.set_gauge(name, value)
        edge_bytes = sum(node.network.total_bytes() for node in nodes)
        edge_dropped = sum(node.network.total_packets_dropped() for node in nodes)
        spine_links = [link for node in nodes for link in (node.uplink, node.downlink)]
        spine_bytes = sum(link.bytes_carried for link in spine_links)
        spine_dropped = sum(link.packets_dropped for link in spine_links)
        spine_util = max((link.utilization() for link in spine_links), default=0.0)
        stats.counters["spine_forwards"] = sum(m.pipeline.forwards for m in mmus)
        stats.set_gauge("tier:edge:bytes", float(edge_bytes))
        stats.set_gauge("tier:spine:bytes", float(spine_bytes))
        stats.set_gauge("tier:spine:utilization_max", spine_util)
        dropped = edge_dropped + spine_dropped
        if dropped:
            stats.counters["link_packets_dropped"] = int(dropped)
        timeline = stats.timeline
        if timeline is not None:
            timeline.finalize(self.engine.now)

    # -- execution helpers ----------------------------------------------------

    def run_process(self, gen, name: Optional[str] = None):
        return self.engine.run_process(gen, name)

    def run_all(self, gens: List) -> List:
        procs = [self.engine.process(g) for g in gens]
        return self.engine.run_until_complete(self.engine.all_of(procs))

