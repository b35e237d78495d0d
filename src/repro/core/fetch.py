"""Data-path legs of a fault transaction (the FETCH phase).

Everything that moves page payloads lives here: the one-sided RDMA fetch
from a memory blade (with connection virtualization -- the switch rewrites
headers so blades never learn endpoints), the MOESI cache-to-cache
``FETCH_FROM_OWNER`` transfer, dirty-page write-backs (synchronous and
asynchronous), and the reliable-delivery helper every leg uses.

Ordering invariant: a fetch of a page whose asynchronous write-back has
not landed yet must wait for the flush (``pending_flushes``), so a read
can never observe stale memory behind an in-flight flush.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional

from ..sim.engine import Event
from ..sim.network import CONTROL_MSG_BYTES, PAGE_SIZE, Port
from ..switchsim.packets import InvalidationRequest, MemRequest
from ..switchsim.rdma_virt import RdmaVirtualizer
from .directory import CoherenceState, Region
from .stt import Transition, TransitionAction
from .txn import Transaction, TxnPhase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.spans import SpanCursor
    from .coherence import CoherenceProtocol


class DataPath:
    """Owns payload movement between blades, switch, and memory."""

    def __init__(self, ctx: "CoherenceProtocol"):
        self.ctx = ctx
        #: switch-side RDMA connection virtualization (Section 6.3).
        self.rdma_virt = RdmaVirtualizer()
        #: page va -> in-flight write-back; fetches of that page must wait
        #: for the flush to land so they never read stale memory.
        self.pending_flushes: Dict[int, Event] = {}

    # -- reliable delivery --------------------------------------------------

    def leg(self, link, size_bytes: int) -> Generator:
        """One reliably delivered wire leg of ``size_bytes`` over ``link``.

        Data-movement and reset legs use this (a lost message is simply
        re-sent); invalidation/ACK legs instead surface the loss so the
        ACK-timeout machinery drives the retry.  An idle, fault-free link
        in a quiet instant takes the
        :meth:`~repro.sim.network.Link.try_start` fast path (two plain
        delays, no transfer frame); anything else runs the full transfer
        and, if a fault window dropped it, :meth:`_redeliver`.
        """
        if (ser := link.try_start(size_bytes)) >= 0.0:
            yield ser
            yield link.finish(size_bytes)
        elif not (yield from self.ctx.engine.subtask(link.transfer(size_bytes))):
            yield from self._redeliver(link, size_bytes)

    def _redeliver(self, link, size_bytes: int) -> Generator:
        """Cold path of :meth:`leg`, entered only when a link fault window
        dropped the first transfer: retransmit with capped exponential
        backoff until a copy lands, at the latest once the window closes.
        """
        ctx = self.ctx
        attempt = 0
        while True:
            ctx.stats.incr("retransmissions")
            ctx.stats.incr("link_retransmissions")
            yield ctx.retry_timeout_us(min(attempt, ctx.MAX_RETRIES))
            attempt += 1
            if (yield from ctx.engine.subtask(link.transfer(size_bytes))):
                return

    def blade_ready(self, blade) -> Generator:
        """Wait out a paused (crashed/stalled) memory blade: each probe
        that goes unanswered costs one backoff timeout."""
        ctx = self.ctx
        attempt = 0
        while not getattr(blade, "available", True):
            if hasattr(blade, "refuse"):
                blade.refuse()
            ctx.stats.incr("blade_timeouts")
            yield ctx.retry_timeout_us(min(attempt, ctx.MAX_RETRIES))
            attempt += 1

    def blade_service_us(self, blade) -> float:
        """NIC+DRAM service time at ``blade`` under any injected slowdown."""
        base = self.ctx.config.memory_service_us + self.ctx.config.dram_access_us
        scale = getattr(blade, "slow_factor", 1.0)
        return base * scale

    # -- the INVALIDATE/FETCH phase dispatch ----------------------------------

    def run_action(
        self,
        txn: Transaction,
        req: MemRequest,
        requester: Port,
        page_va: int,
        region: Region,
        transition: Transition,
        old_owner: Optional[int],
        old_sharers: frozenset,
        spans: "SpanCursor",
    ) -> Generator:
        """Drive the data-path phases the STT verdict selected.  Returns
        ``(data, coalesced)``."""
        ctx = self.ctx
        if transition.action is TransitionAction.FETCH_ONLY:
            txn.phase = TxnPhase.FETCH
            if txn.shared:
                joined = ctx.pending.inflight_fetch(txn, page_va)
                if joined is not None:
                    # MSHR merge: ride the in-flight fetch (one RDMA, N
                    # completions), then take our own downlink leg.
                    data = yield joined.done
                    spans.mark("coalesced_wait")
                    yield from self.leg(requester.from_switch, PAGE_SIZE)
                    yield ctx.config.rdma_verb_overhead_us
                    spans.mark_wire("reply", requester.from_switch)
                    return data, True
            if (
                not txn.shared
                and not txn.is_write
                and transition.next_state is CoherenceState.SHARED
            ):
                # The directory update is applied; the rest is a pure
                # Shared fetch, so parked readers may now ride along.
                ctx.pending.downgrade(txn, region)
            if txn.shared:
                published = ctx.pending.publish_fetch(txn, page_va)
                data = None
                try:
                    data = yield from self.fetch(req, requester, page_va)
                finally:
                    ctx.pending.finish_fetch(txn, published, data)
            else:
                data = yield from self.fetch(req, requester, page_va)
            spans.mark_wire("fetch", requester.from_switch)
            return data, False
        if transition.action is TransitionAction.INVALIDATE_PARALLEL:
            txn.phase = TxnPhase.INVALIDATE
            targets = ctx.multicast.replicate(
                ctx.compute_group, old_sharers, req.src_port
            )
            inval = ctx.invalidation.make_inval(region, req, targets, downgrade=False)
            fetch_proc = ctx.engine.process(self.fetch(req, requester, page_va))
            ack_proc = ctx.engine.process(
                ctx.invalidation.invalidate_all(inval, targets, region)
            )
            yield ctx.engine.all_of([fetch_proc, ack_proc])
            # Fetch and invalidation overlap (the S->M parallelism of
            # Fig. 7); the wall segment is attributed to their union.
            spans.mark_wire("fetch+invalidation", requester.from_switch)
            return fetch_proc.value, False
        if transition.action is TransitionAction.LOCAL_UPGRADE:
            # MOESI O->M at the owner: no data moves; invalidate the other
            # sharers, then return the grant.
            txn.phase = TxnPhase.INVALIDATE
            targets = ctx.multicast.replicate(
                ctx.compute_group, old_sharers, req.src_port
            )
            inval = ctx.invalidation.make_inval(region, req, targets, downgrade=False)
            yield from ctx.invalidation.invalidate_all(inval, targets, region)
            spans.mark("invalidation")
            yield from self.leg(requester.from_switch, CONTROL_MSG_BYTES)
            spans.mark_wire("reply", requester.from_switch)
            return None, False
        if transition.action is TransitionAction.FETCH_FROM_OWNER:
            # Only the first steal (M->O) must write-protect the owner; for
            # O->O the owner is read-only already.
            txn.phase = TxnPhase.FETCH
            data = yield from self.fetch_from_owner(
                req,
                requester,
                page_va,
                old_owner,
                region,
                write_protect_owner=transition.label == "M->O",
            )
            spans.mark_wire("owner_fetch", requester.from_switch)
            return data, False
        # INVALIDATE_OWNER_THEN_FETCH: the owner must flush before memory
        # serves (the sequential M->S/M path, 2x latency of Fig. 7 left).
        txn.phase = TxnPhase.INVALIDATE
        target_set = set(old_sharers)
        if old_owner is not None:
            target_set.add(old_owner)
        target_set.discard(req.src_port)
        targets = ctx.multicast.replicate(
            ctx.compute_group, frozenset(target_set), req.src_port
        )
        inval = ctx.invalidation.make_inval(
            region, req, targets, downgrade=transition.owner_downgrades
        )
        yield from ctx.invalidation.invalidate_all(inval, targets, region)
        spans.mark("invalidation")
        txn.phase = TxnPhase.FETCH
        data = yield from self.fetch(req, requester, page_va)
        spans.mark_wire("fetch", requester.from_switch)
        return data, False

    # -- memory-blade fetch ---------------------------------------------------

    def fetch(self, req: MemRequest, requester: Port, page_va: int) -> Generator:
        """One-sided RDMA fetch from the page's memory blade.

        Every leg is a reliable :meth:`leg`: a packet a link fault drops is
        retransmitted (Section 4.4: ACKs and timeouts detect losses on every
        message class), so the fetch always lands once the loss window
        closes.
        """
        ctx = self.ctx
        xlate = ctx.address_space.translate(page_va)
        blade = ctx._memory_blades[xlate.blade_id]
        ctx.stats.incr("memory_fetches")
        # Stitch the requester's virtual connection to the real one.
        self.rdma_virt.rewrite(req.src_port, xlate.blade_id)
        yield from self.leg(blade.port.from_switch, CONTROL_MSG_BYTES)
        if not getattr(blade, "available", True):
            yield from self.blade_ready(blade)
        pending = self.pending_flushes.get(page_va)
        if pending is not None and not pending.triggered:
            # An asynchronous write-back of this very page has not landed
            # yet; the NIC must serve the read after it (flush/fetch order).
            yield pending
        yield self.blade_service_us(blade)
        data = blade.read_page(xlate.pa)
        yield from self.leg(blade.port.to_switch, PAGE_SIZE)
        # Response pass through the pipeline, then down to the requester.
        resp = ctx.pipeline.packet()
        yield from ctx.engine.subtask(resp.traverse())
        yield from self.leg(requester.from_switch, PAGE_SIZE)
        yield ctx.config.rdma_verb_overhead_us
        return data

    # -- MOESI cache-to-cache -------------------------------------------------

    def fetch_from_owner(
        self,
        req: MemRequest,
        requester: Port,
        page_va: int,
        owner_port_id: Optional[int],
        region: Region,
        write_protect_owner: bool,
    ) -> Generator:
        """MOESI cache-to-cache transfer: one trip to the owner downgrades
        it (M->O) and carries the page back -- no memory write-back.

        Falls back to the memory blade when the owner no longer caches the
        page (it was evicted, and the eviction flush made memory current).
        """
        ctx = self.ctx
        if owner_port_id is None or owner_port_id not in ctx._page_servers:
            data = yield from self.fetch(req, requester, page_va)
            return data
        owner_port = ctx._blade_ports[owner_port_id]
        if write_protect_owner:
            inval = InvalidationRequest(
                region_base=region.base,
                region_size=region.size,
                sharers=frozenset({owner_port_id}),
                requester_port=req.src_port,
                target_va=page_va,
                downgrade_to_shared=True,
                keep_dirty=True,
            )
            yield from ctx.invalidation.invalidate_all(inval, [owner_port_id], region)
        else:
            # Just the read request leg to the owner.
            yield from self.leg(owner_port.from_switch, CONTROL_MSG_BYTES)
        # The owner's kernel serves the page out of its DRAM cache.
        yield ctx.config.memory_service_us + ctx.config.dram_access_us
        data = ctx._page_servers[owner_port_id](page_va)
        if data is None:
            # Owner evicted the page; its flush made memory current.
            fetched = yield from self.fetch(req, requester, page_va)
            return fetched
        if data == b"":
            data = None  # resident, but payload storage is disabled
        ctx.stats.incr("cache_to_cache_transfers")
        yield from self.leg(owner_port.to_switch, PAGE_SIZE)
        resp = ctx.pipeline.packet()
        yield from ctx.engine.subtask(resp.traverse())
        yield from self.leg(requester.from_switch, PAGE_SIZE)
        yield ctx.config.rdma_verb_overhead_us
        return data

    # -- write-backs ----------------------------------------------------------

    def flush_page(
        self,
        src_port: Port,
        page_va: int,
        data: Optional[bytes],
        landed: Optional[Event] = None,
    ) -> Generator:
        """Write a dirty page back to its memory blade (eviction or inval).

        The blade sends the page up; the switch translates and forwards it
        as a one-sided WRITE.  ``landed`` fires the moment the payload is
        durable at the memory blade (before the NIC's ACK returns) -- the
        ordering point fetches synchronize on.
        """
        ctx = self.ctx
        xlate = ctx.address_space.translate(page_va)
        blade = ctx._memory_blades[xlate.blade_id]
        self.rdma_virt.rewrite(src_port.port_id, xlate.blade_id)
        # Every leg is delivered reliably: a silently lost write-back would
        # leave memory stale behind an Invalid directory -- incoherence.
        yield from self.leg(src_port.to_switch, PAGE_SIZE)
        pkt = ctx.pipeline.packet()
        yield from ctx.engine.subtask(pkt.traverse())
        yield from self.leg(blade.port.from_switch, PAGE_SIZE)
        if not getattr(blade, "available", True):
            yield from self.blade_ready(blade)
        yield self.blade_service_us(blade)
        blade.write_page(xlate.pa, data)
        ctx.stats.incr("pages_written_back")
        if landed is not None and not landed.triggered:
            landed.succeed()
        yield from self.leg(blade.port.to_switch, CONTROL_MSG_BYTES)

    def flush_page_async(
        self, src_port: Port, page_va: int, data: Optional[bytes]
    ) -> Event:
        """Start a write-back without waiting for it (Section 7.2's overlap:
        the invalidation ACK returns while the flush drains; correctness is
        preserved because fetches wait on :attr:`pending_flushes`)."""
        ctx = self.ctx
        landed = ctx.engine.event()
        self.pending_flushes[page_va] = landed
        ctx.engine.process(
            self.flush_page(src_port, page_va, data, landed=landed),
            name=f"flush-{page_va:#x}",
        )

        def _clear(_ev) -> None:
            if self.pending_flushes.get(page_va) is landed:
                del self.pending_flushes[page_va]

        landed.add_callback(_clear)
        return landed
