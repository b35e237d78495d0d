"""In-network coherence protocol orchestration (Sections 4.3.2 and 6.3).

This module is the thin top of a layered transaction engine:

- :mod:`repro.core.txn` -- the MSHR-style :class:`PendingTransactionTable`
  (admission, transient-state queuing, Shared-read fetch coalescing) and
  the ADMIT-phase :class:`AdmissionController`.
- :mod:`repro.core.invalidation` -- multicast/unicast invalidation, ACK
  tracking, timeout/retry, and the Section 4.4 reset protocol.
- :mod:`repro.core.fetch` -- the data-path legs: memory-blade fetch, MOESI
  cache-to-cache transfer, write-backs, reliable delivery.

:class:`CoherenceProtocol` wires STT verdicts to those layers.  One fault
transaction walks admit -> resolve (pipeline pass + recirculating
directory update, Fig. 4) -> invalidate/fetch -> complete; its wall time
is partitioned by a :class:`SpanCursor` whose components (including
``queue_conflict`` and ``coalesced_wait``) sum exactly to the end-to-end
fault latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, Optional

from ..obs.spans import SpanCursor
from ..sim.engine import Engine, Event
from ..sim.network import (
    CONTROL_MSG_BYTES,
    Network,
    NetworkConfig,
    PAGE_SIZE,
    Port,
    pop_deferred_us,
)
from ..sim.stats import StatsCollector
from ..switchsim.multicast import MulticastEngine
from ..switchsim.packets import InvalidationRequest, MemRequest, PacketVerdict
from ..switchsim.pipeline import SwitchPipeline
from .addressing import AddressSpace
from .directory import RegionDirectory
from .fetch import DataPath
from .invalidation import InvalidationEngine
from .protection import ProtectionTable
from .stt import apply_transition
from .txn import AdmissionController, FaultResult, PendingTransactionTable
from .vma import align_down

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blades.memory import MemoryBlade

#: Multicast group containing every compute blade (invalidation fan-out).
COMPUTE_BLADE_GROUP = 1

#: A compute blade's invalidation handler: a generator-producing callable
#: that performs the local invalidation work and returns an InvalidationAck.
InvalidationHandler = Callable[[InvalidationRequest], Generator]


class CoherenceProtocol:
    """The switch-resident coherence engine: a thin orchestrator wiring
    STT verdicts to the admission, invalidation, and data-path layers."""

    #: retransmission timeout for invalidation ACKs (us).
    ACK_TIMEOUT_US = 100.0
    #: retransmissions before the reset protocol kicks in.
    MAX_RETRIES = 3

    def __init__(
        self,
        engine: Engine,
        network: Network,
        pipeline: SwitchPipeline,
        multicast: MulticastEngine,
        directory: RegionDirectory,
        address_space: AddressSpace,
        protection: ProtectionTable,
        stt: Dict,
        stats: StatsCollector,
        invalidation_mode: str = "multicast",
        control_cpu=None,
        pending_table_capacity: int = 256,
    ):
        self.engine = engine
        self.network = network
        self.config: NetworkConfig = network.config
        self.pipeline = pipeline
        self.multicast = multicast
        self.directory = directory
        self.address_space = address_space
        self.protection = protection
        self.stt = stt
        self.stats = stats
        if invalidation_mode not in ("multicast", "unicast-cpu"):
            raise ValueError(f"unknown invalidation mode {invalidation_mode!r}")
        #: "multicast" (the paper's P3 design: one data-plane pass, egress
        #: pruning) or "unicast-cpu" (the ablation: the switch CPU generates
        #: one invalidation packet per sharer, serially).
        self.invalidation_mode = invalidation_mode
        self.control_cpu = control_cpu
        # The layered engine: admission/pending table, invalidation, data path.
        self.pending = PendingTransactionTable(
            engine, stats, capacity=pending_table_capacity
        )
        self.admission = AdmissionController(self)
        self.invalidation = InvalidationEngine(self)
        self.fetch = DataPath(self)
        #: fail-over state: the epoch counts switch crashes; while an
        #: outage event is pending, new fault transactions wait at the gate.
        self.epoch = 0
        self._outage: Optional[Event] = None
        self.outage_started_at: Optional[float] = None
        #: service phase for latency attribution ("pre"/"degraded"/"post");
        #: recorded only when an orchestrator enables tracking.
        self.phase = "pre"
        self.phase_tracking = False
        self._inval_handlers: Dict[int, InvalidationHandler] = {}
        self._page_servers: Dict[int, Callable[[int], Optional[bytes]]] = {}
        self._blade_ports: Dict[int, Port] = {}
        self._memory_blades: Dict[int, "MemoryBlade"] = {}
        # MAU stages per Fig. 4.
        self.protection_mau = pipeline.add_stage("protection")
        self.directory_mau = pipeline.add_stage("directory")
        self.stt_mau = pipeline.add_stage("stt")
        self.compute_group = COMPUTE_BLADE_GROUP
        self.multicast.create_group(COMPUTE_BLADE_GROUP, [])

    @classmethod
    def retry_timeout_us(cls, attempt: int) -> float:
        """Section 4.4 retransmission wait after the ``attempt``-th failed
        try: the ACK timeout, doubled per attempt, capped at 8x."""
        return min(cls.ACK_TIMEOUT_US * 2.0 ** attempt, 8 * cls.ACK_TIMEOUT_US)

    # -- layer access -------------------------------------------------------

    @property
    def rdma_virt(self):
        """Connection-virtualization state (lives on the data path)."""
        return self.fetch.rdma_virt

    @property
    def pending_flushes(self) -> Dict[int, Event]:
        return self.fetch.pending_flushes

    def memory_blade(self, blade_id: int):
        return self._memory_blades[blade_id]

    def flush_page(self, src_port, page_va, data, landed=None) -> Generator:
        return self.fetch.flush_page(src_port, page_va, data, landed=landed)

    def flush_page_async(self, src_port, page_va, data) -> Event:
        return self.fetch.flush_page_async(src_port, page_va, data)

    def drain_writebacks(self, base: int = 0, length: Optional[int] = None) -> Generator:
        """Wait for every in-flight write-back (optionally range-filtered)
        to land.  Fail-over and migration quiesce on this instead of
        reaching into the data path's flush map."""
        end = None if length is None else base + length
        pending = [
            ev
            for va, ev in self.fetch.pending_flushes.items()
            if not ev.triggered and (end is None or base <= va < end)
        ]
        if pending:
            yield self.engine.all_of(pending)

    # -- registration -------------------------------------------------------

    def register_compute_blade(
        self,
        port: Port,
        handler: InvalidationHandler,
        serve_page: Optional[Callable[[int], Optional[bytes]]] = None,
    ) -> None:
        """Attach a compute blade: its invalidation handler and (for the
        MOESI extension) its cache-to-cache page server."""
        self._inval_handlers[port.port_id] = handler
        self._blade_ports[port.port_id] = port
        if serve_page is not None:
            self._page_servers[port.port_id] = serve_page
        self.multicast.group(COMPUTE_BLADE_GROUP).add_port(port.port_id)

    def register_memory_blade(self, blade_id: int, blade: "MemoryBlade") -> None:
        self._memory_blades[blade_id] = blade

    # -- fail-over lifecycle (Section 4.4) ----------------------------------

    def begin_outage(self) -> Event:
        """Primary-switch crash: new fault transactions block at the gate
        until :meth:`end_outage`.  Idempotent; returns the gate event.  The
        epoch bumps *now*, not at the take-over: a transaction in flight at
        the crash instant had its directory effects on the dying switch, so
        it must come back stale even though it keeps executing in the model."""
        if self._outage is None:
            self._outage = self.engine.event()
            self.outage_started_at = self.engine.now
            self.epoch += 1
        return self._outage

    def end_outage(self) -> None:
        """Backup switch is serving: release every transaction at the gate."""
        gate = self._outage
        if gate is not None:
            self._outage = None
            if not gate.triggered:
                gate.succeed()

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.stats.set_phase(self.engine.now, phase)

    # -- the fault transaction ----------------------------------------------

    def handle_fault(self, req: MemRequest) -> Generator:
        """Full fault transaction; returns a :class:`FaultResult`.

        Instrumented with a :class:`SpanCursor` whose marks partition its
        wall time -- the ``fault_path`` breakdown sums exactly to the
        end-to-end fault latency.
        """
        t0 = self.engine.now
        tracer = self.engine.tracer
        lane = tracer.track(f"coherence:port{req.src_port}") if tracer.enabled else 0
        spans = SpanCursor(
            self.engine, self.stats, "fault_path", trace_cat="coherence", track=lane
        )
        # Fail-over gate: while the primary is down, new transactions wait
        # for the backup.  The wait is part of the fault's latency -- it
        # *is* the unavailability window as the blades experience it -- so
        # it gets its own breakdown component (zero, hence unrecorded, when
        # no outage is pending).
        while self._outage is not None:
            yield self._outage
        spans.mark("outage")
        epoch = self.epoch
        requester = self._blade_ports[req.src_port]
        # Cross-rack requesters sit behind a CompositePath that banks its
        # spine-tier time for span attribution.  Time banked by an earlier
        # overlapping transaction (e.g. an async flush on the same path)
        # must not leak into this fault's breakdown.
        pop_deferred_us(requester.to_switch)
        pop_deferred_us(requester.from_switch)
        page_va = align_down(req.va, PAGE_SIZE)
        pkt = self.pipeline.packet()

        # Requester -> switch (retransmitted if the uplink drops it).
        yield self.config.rdma_verb_overhead_us
        yield from self.fetch.leg(requester.to_switch, CONTROL_MSG_BYTES)
        spans.mark_wire("request", requester.to_switch)

        # Pipeline pass 1: protection check, directory lookup, STT match.
        yield from self.engine.subtask(pkt.traverse())
        verdict = pkt.execute(
            self.protection_mau,
            lambda: self.protection.check(req.pdid, req.va, req.access),
        )
        spans.mark("pipeline")
        if verdict is not PacketVerdict.ALLOW:
            self.stats.incr("protection_rejections")
            yield from self.fetch.leg(requester.from_switch, CONTROL_MSG_BYTES)
            spans.mark_wire("reply", requester.from_switch)
            return FaultResult(verdict, stale=self.epoch != epoch)

        # ADMIT + classify (optimistic Shared-read admission lives there).
        txn = self.pending.transaction(req.src_port, page_va, req.access.is_write)
        try:
            region, transition = yield from self.admission.resolve(
                txn, pkt, req.access, spans
            )
            region.accesses += 1
            self.stats.incr("remote_accesses")
            self.stats.incr(f"transition:{transition.label}")

            # Recirculate so the directory MAU can apply the update.
            yield from self.engine.subtask(pkt.recirculate())
            old_owner = region.owner
            old_sharers = frozenset(region.sharers)
            pkt.execute(
                self.directory_mau,
                lambda: apply_transition(region, transition, req.src_port),
            )
            spans.mark("recirculate")

            data, coalesced = yield from (
                self.fetch.run_action(
                    txn, req, requester, page_va, region, transition,
                    old_owner, old_sharers, spans,
                )
            )

            latency = self.engine.now - t0
            self.stats.record_latency(f"fault:{transition.label}", latency)
            self.stats.record_latency("fault", latency, t=self.engine.now)
            if self.phase_tracking:
                # Attribute to the current service phase so the availability
                # report can compare pre/degraded/post tails.
                self.stats.record_latency(f"fault:phase:{self.phase}", latency)
            if tracer.enabled:
                tracer.complete(
                    t0, latency, "coherence", f"fault:{transition.label}", track=lane
                )
            stale = self.epoch != epoch
            if stale:
                self.stats.incr("stale_transactions")
            return FaultResult(
                PacketVerdict.ALLOW, data, stale=stale, coalesced=coalesced
            )
        finally:
            self.pending.complete(txn)
