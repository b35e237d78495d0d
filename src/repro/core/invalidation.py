"""Invalidation transport: multicast fan-out, ACK tracking, Section 4.4.

The INVALIDATE phase of a fault transaction lives here.  The switch
replicates the invalidation to the sharer set (one data-plane pass with
egress pruning in multicast mode; serialized switch-CPU packet generation
in the ``unicast-cpu`` ablation), tracks ACKs per target, retransmits lost
messages with exponential backoff, and -- after ``MAX_RETRIES`` -- runs the
paper's *reset* protocol: every blade flushes its copies of the region and
the directory entry is dropped, breaking any wedged transition.

The engine is deliberately stateless between calls: all transient state
(which targets are outstanding) lives in the generator frames, and the
shared mutable state (directory entry, counters) is owned by the caller's
admitted transaction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from ..sim.network import CONTROL_MSG_BYTES, PAGE_SIZE
from ..switchsim.packets import InvalidationAck, InvalidationRequest
from .directory import CoherenceState, Region
from .vma import align_down

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .coherence import CoherenceProtocol


class InvalidationEngine:
    """Owns invalidation delivery and the Section 4.4 reset protocol."""

    #: switch-CPU time to generate one unicast invalidation packet (the
    #: ablation's cost; the data-plane multicast pays none of this).
    UNICAST_CPU_US = 8.0

    def __init__(self, ctx: "CoherenceProtocol"):
        self.ctx = ctx

    def make_inval(
        self, region: Region, req, targets: List[int], downgrade: bool
    ) -> InvalidationRequest:
        return InvalidationRequest(
            region_base=region.base,
            region_size=region.size,
            sharers=frozenset(targets),
            requester_port=req.src_port,
            target_va=align_down(req.va, PAGE_SIZE),
            downgrade_to_shared=downgrade,
        )

    def make_eviction_inval(
        self, victim: Region, targets: List[int]
    ) -> InvalidationRequest:
        return InvalidationRequest(
            region_base=victim.base,
            region_size=victim.size,
            sharers=frozenset(targets),
            requester_port=-1,
            target_va=-1,  # capacity eviction: every page is collateral
        )

    def invalidate_all(
        self, inval: InvalidationRequest, targets: List[int], region: Region
    ) -> Generator:
        """Deliver an invalidation to every target (resetting the region
        if some target never ACKs).

        Multicast mode replicates in the traffic manager: all targets are
        in flight after one pipeline pass.  Unicast mode serializes packet
        generation on the switch CPU (plus PCIe), which is exactly what
        makes software invalidation fan-out scale poorly with sharers.
        """
        ctx = self.ctx
        if not targets:
            return
        procs = []
        for port_id in targets:
            if ctx.invalidation_mode == "unicast-cpu":
                ctx.stats.incr("unicast_invalidations_generated")
                if ctx.control_cpu is not None:
                    yield ctx.engine.process(self._unicast_generate())
                else:
                    yield self.UNICAST_CPU_US
            procs.append(
                ctx.engine.process(self._invalidate_with_retry(inval, port_id, region))
            )
        yield ctx.engine.all_of(procs)

    def _unicast_generate(self) -> Generator:
        """One unicast invalidation's generation at the switch CPU."""
        yield self.UNICAST_CPU_US
        self.ctx.control_cpu.busy_us += self.UNICAST_CPU_US

    def _invalidate_with_retry(
        self, inval: InvalidationRequest, port_id: int, region: Region
    ) -> Generator:
        """One target: deliver, await ACK, retransmit on loss with
        exponential backoff, reset after MAX_RETRIES (Section 4.4)."""
        ctx = self.ctx
        for attempt in range(ctx.MAX_RETRIES + 1):
            ack = yield from self._invalidate_at(inval, port_id, region)
            if ack is not None:
                return
            # A link fault window ate the invalidation or its ACK: wait
            # out the (growing) timeout, retransmit.
            ctx.stats.incr("retransmissions")
            yield ctx.retry_timeout_us(attempt)
        yield from self.reset_region(region)

    def _invalidate_at(
        self, inval: InvalidationRequest, port_id: int, region: Region
    ) -> Generator:
        """Deliver to one blade, run its handler, carry the ACK back.

        Returns None when a link-level fault drops either leg: a dropped
        outbound leg means the blade never saw the request; a dropped ACK
        leg means the blade *did* the work (accounting still happens -- the
        retry is idempotent) but the switch cannot know, and must resend.
        """
        ctx = self.ctx
        engine = ctx.engine
        port = ctx._blade_ports[port_id]
        ctx.stats.incr("invalidations_sent")
        link = port.from_switch
        if (ser := link.try_start(CONTROL_MSG_BYTES)) >= 0.0:
            yield ser
            yield link.finish(CONTROL_MSG_BYTES)
        elif not (yield engine.process(link.transfer(CONTROL_MSG_BYTES))):
            return None
        ack: InvalidationAck = yield ctx.engine.process(
            ctx._inval_handlers[port_id](inval)
        )
        link = port.to_switch
        if (ser := link.try_start(CONTROL_MSG_BYTES)) >= 0.0:
            yield ser
            yield link.finish(CONTROL_MSG_BYTES)
            acked = True
        else:
            acked = yield engine.process(link.transfer(CONTROL_MSG_BYTES))
        # Fold the blade's report into directory + stats accounting.  The
        # "invalidation" breakdown (queue/tlb of Fig. 7 right) is recorded
        # by the blade's own span instrumentation, not here.
        region.false_invalidations += ack.false_invalidations
        ctx.stats.incr("flushed_pages", ack.flushed_pages)
        ctx.stats.incr("dropped_pages", ack.dropped_pages)
        ctx.stats.incr("false_invalidations", ack.false_invalidations)
        if not inval.downgrade_to_shared:
            region.sharers.discard(port_id)
        if not acked:
            return None
        return ack

    def reset_region(self, region: Region) -> Generator:
        """The Section 4.4 reset: force every blade to flush the region's
        data and drop the directory entry, breaking any wedged transition."""
        ctx = self.ctx
        ctx.stats.incr("resets")
        reset_inval = InvalidationRequest(
            region_base=region.base,
            region_size=region.size,
            sharers=frozenset(ctx._inval_handlers),
            requester_port=-1,
            target_va=-1,
        )
        procs = []
        for port_id, handler in ctx._inval_handlers.items():
            port = ctx._blade_ports[port_id]

            # Reset messages must land (a lost reset would leave a wedged
            # region wedged), so each leg is delivered reliably.
            def reset_blade(h=handler, p=port):
                yield from ctx.fetch.leg(p.from_switch, CONTROL_MSG_BYTES)
                yield ctx.engine.process(h(reset_inval))
                yield from ctx.fetch.leg(p.to_switch, CONTROL_MSG_BYTES)

            procs.append(ctx.engine.process(reset_blade()))
        yield ctx.engine.all_of(procs)
        region.state = CoherenceState.INVALID
        region.sharers.clear()
        region.owner = None
        if ctx.directory.find(region.base) is region:
            ctx.directory.release(region)
