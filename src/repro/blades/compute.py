"""Compute blade: page-fault-driven transparent access to remote memory.

This models the paper's modified Linux kernel at the compute blade
(Section 6.1):

- LOAD/STOREs to cached pages hit local DRAM (<100 ns) and never leave the
  blade.
- A miss (or a write to a read-only cached page) raises a page fault; the
  kernel posts a one-sided RDMA request *for the virtual address* to the
  switch, which runs protection, translation and coherence, and returns the
  page.  The receive buffer is the application page itself, so there are no
  extra copies; PTEs are populated before control returns.  Here the cache
  keeps the fetched ``bytes`` object itself, and a page's first
  :meth:`ComputeBlade.store_bytes` gives it a private ``bytearray``
  (copy-on-write).  Write-backs and the MOESI owner's ``serve_page`` pass
  an unwritten page's shared bytes on without copying them.
- Dirty LRU evictions write the page back to its memory blade.
- A cached page carries its local PTEs, one per protection domain
  (Section 3.2): a hit needs *this* domain's PTE with the access's
  permission, so another domain's first touch faults to the switch.
- Invalidation requests from the switch flush the region's dirty pages,
  drop or write-protect its pages together with their PTEs, and perform a
  synchronous TLB shootdown priced by the PTEs it changed; invalidation
  handling is serialized per blade, producing the queueing delays measured
  in Fig. 7 (right).

Thread execution (:meth:`run_thread`) replays a memory-access trace under
TSO (the hardware-enforced default) or PSO (the simulated relaxation of
Section 7.1): under PSO, write faults are issued asynchronously through a
bounded store buffer and only a subsequent read to a pending page blocks.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Optional, Tuple

from ..core.coherence import CoherenceProtocol, FaultResult
from ..core.vma import align_down
from ..obs.spans import SpanCursor
from ..sim.engine import Engine, Event, Resource
from ..sim.network import Network, NetworkConfig, PAGE_SIZE
from ..sim.stats import StatsCollector
from ..switchsim.packets import (
    AccessType,
    InvalidationAck,
    InvalidationRequest,
    MemRequest,
    PacketVerdict,
)
from ..workloads.trace import AccessOrStream, AccessStream
from .cache import PageCache
from .consistency import ConsistencyModel, StoreBuffer


class SegmentationFault(Exception):
    """The switch rejected an access (no entry or permission mismatch)."""


#: Flush accumulated local-DRAM time to the event loop at this granularity;
#: batching hit costs keeps the event count proportional to faults.
LOCAL_TIME_BATCH_US = 25.0

#: PTE population after a fault completes (kernel mm critical section).
PTE_FIXUP_US = 0.3

#: base cost of one synchronous TLB shootdown (inter-processor interrupts,
#: waiting for all cores to ACK); matches the "several microseconds" of
#: Section 7.2.
SHOOTDOWN_BASE_US = 3.0
#: incremental cost per additional PTE in the same shootdown batch.
SHOOTDOWN_PER_PTE_US = 0.15


class ComputeBlade:
    """One compute blade: local cache + kernel fault/invalidation paths."""

    #: which rack this blade physically sits in (set by a multi-rack
    #: fabric; a stand-alone cluster is all rack 0).
    home_rack: int = 0

    def __init__(
        self,
        blade_id: int,
        engine: Engine,
        network: Network,
        datapath: CoherenceProtocol,
        cache_capacity_pages: int,
        stats: StatsCollector,
    ):
        self.blade_id = blade_id
        self.engine = engine
        self.config: NetworkConfig = network.config
        self.datapath = datapath
        self.cache = PageCache(cache_capacity_pages)
        self.stats = stats
        self.port = network.attach(f"compute{blade_id}")
        #: serializes the kernel's memory-management critical sections: page
        #: fault entry/PTE fixup and invalidation processing contend on it,
        #: producing the invalidation queueing delay of Fig. 7 (right).
        self.kernel_lock = Resource(
            engine, capacity=1, name=f"blade{blade_id}.kernel_lock"
        )
        #: cumulative time TLB-shootdown IPIs have stolen from every core on
        #: this blade; running threads observe it and slow down accordingly.
        self.steal_time_us = 0.0
        self._inflight_faults: Dict[int, Event] = {}
        datapath.register_compute_blade(
            self.port, self.handle_invalidation, serve_page=self.serve_page
        )

    # -- invalidation handling (switch -> blade) ------------------------------

    def handle_invalidation(self, inval: InvalidationRequest) -> Generator:
        """Kernel invalidation path; returns an :class:`InvalidationAck`.

        Serialized per blade: concurrent invalidations queue, and the wait
        is reported in the ACK as queueing delay.  A :class:`SpanCursor`
        partitions the handling time into the queue/process/tlb components
        Fig. 7 (right) plots (the ``invalidation`` breakdown).
        """
        tracer = self.engine.tracer
        spans = SpanCursor(
            self.engine,
            self.stats,
            "invalidation",
            trace_cat="blade",
            track=tracer.track(f"blade{self.blade_id}") if tracer.enabled else 0,
        )
        queue_delay = yield self.kernel_lock.acquire()
        spans.mark("queue")
        try:
            self.stats.incr("invalidations_received")
            yield self.config.invalidation_processing_us
            target_resident = (
                inval.target_va >= 0 and self.cache.peek(inval.target_va) is not None
            )
            outcome = self.cache.invalidate_region(
                inval.region_base,
                inval.region_size,
                inval.downgrade_to_shared,
                keep_dirty=inval.keep_dirty,
            )
            spans.mark("process")
            shot_down = outcome.ptes_shot_down
            tlb_us = 0.0
            if shot_down:
                tlb_us = SHOOTDOWN_BASE_US + SHOOTDOWN_PER_PTE_US * (shot_down - 1)
                # The shootdown IPIs every core: application threads on this
                # blade lose the same time (they observe steal_time_us).
                self.steal_time_us += tlb_us
                yield tlb_us
                spans.mark("tlb")
            for page in outcome.flushed:
                data = bytes(page.data) if page.data is not None else None
                # Asynchronous write-back: the ACK does not wait for the
                # flush; the switch makes fetches of these pages wait.
                self.datapath.flush_page_async(self.port, page.va, data)
            affected = outcome.pages_affected
            false_invals = max(0, affected - (1 if target_resident else 0))
            return InvalidationAck(
                region_base=inval.region_base,
                src_port=self.port.port_id,
                flushed_pages=len(outcome.flushed),
                dropped_pages=outcome.dropped + outcome.downgraded,
                false_invalidations=false_invals,
                queue_delay_us=queue_delay,
                tlb_shootdown_us=tlb_us,
            )
        finally:
            self.kernel_lock.release()

    def serve_page(self, page_va: int) -> Optional[bytes]:
        """MOESI cache-to-cache path: hand the switch a copy of a cached
        page (the region's Owner supplies readers).  Returns None if the
        page is no longer resident."""
        page = self.cache.peek(page_va)
        if page is None:
            return None
        self.stats.incr("pages_served_from_cache")
        # b"" = resident but payloads disabled (trace-replay mode); the
        # switch still performs the cache-to-cache transfer timing.
        return bytes(page.data) if page.data is not None else b""

    # -- fault path (blade -> switch) -------------------------------------------

    def _fault(self, pdid: int, page_va: int, write: bool) -> Generator:
        """Page-fault a page in, deduplicating concurrent faults per page.

        Returns the resident :class:`CachedPage` with the needed permission.
        """
        while True:
            inflight = self._inflight_faults.get(page_va)
            if inflight is None:
                break
            yield inflight
            # Only a hit if *this* domain now holds a sufficient PTE; a
            # concurrent fault by another domain must not leak access.
            page = self.cache.lookup(page_va, write, pdid)
            if page is not None:
                return page
        ev = self.engine.event()
        self._inflight_faults[page_va] = ev
        t_fault = self.engine.now
        try:
            # Fault entry runs a kernel mm critical section; invalidation
            # handling contends on the same lock.
            yield self.kernel_lock.acquire()
            try:
                yield self.config.fault_overhead_us
            finally:
                self.kernel_lock.release()
            req = MemRequest(
                va=page_va,
                pdid=pdid,
                access=AccessType.WRITE if write else AccessType.READ,
                src_port=self.port.port_id,
            )
            result: FaultResult = yield from self.engine.subtask(
                self.datapath.handle_fault(req)
            )
            while result.stale:
                # A switch fail-over landed while this transaction was in
                # flight: its directory effects may be gone.  Discard the
                # result (never insert a stale page) and re-issue against
                # the rebuilt data plane.
                self.stats.incr("faults_reissued")
                result = yield from self.engine.subtask(
                    self.datapath.handle_fault(req)
                )
            if result.coalesced:
                # The switch folded this read onto another blade's in-flight
                # fetch of the same page (one RDMA, N completions).
                self.stats.incr("faults_coalesced")
            if result.verdict is not PacketVerdict.ALLOW:
                raise SegmentationFault(
                    f"pdid={pdid} va={page_va:#x} "
                    f"{'write' if write else 'read'}: {result.verdict.value}"
                )
            # PTE population is another short mm critical section.
            yield self.kernel_lock.acquire()
            try:
                yield PTE_FIXUP_US
                evicted = self.cache.insert(page_va, result.data, write, pdid)
            finally:
                self.kernel_lock.release()
            page = self.cache.peek(page_va)
            if write:
                page.dirty = True
            for victim in evicted:
                self.stats.incr("evictions")
                if victim.dirty:
                    self.stats.incr("eviction_flushes")
                    data = bytes(victim.data) if victim.data is not None else None
                    self.datapath.flush_page_async(self.port, victim.va, data)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.complete(
                    t_fault,
                    self.engine.now - t_fault,
                    "blade",
                    f"fault:{'w' if write else 'r'}:{page_va:#x}",
                    track=tracer.track(f"blade{self.blade_id}"),
                )
            return page
        finally:
            del self._inflight_faults[page_va]
            if not ev.triggered:
                ev.succeed()

    def ensure_page(self, pdid: int, va: int, write: bool) -> Generator:
        """Resident page with the needed permission (hit or fault).

        A cache hit counts only if *this domain* holds a local PTE with the
        needed permission: cached pages do not leak across protection
        domains -- another domain's first touch faults to the switch, whose
        protection table arbitrates (Section 3.2).
        """
        va = int(va)
        page = self.cache.lookup(va, write, pdid)
        if page is not None:
            yield self.config.dram_access_us
            return page
        page = yield from self._fault(pdid, align_down(va, PAGE_SIZE), write)
        return page

    # -- byte-granular API used by repro.api ------------------------------------

    def load_bytes(self, pdid: int, va: int, size: int) -> Generator:
        """Read ``size`` bytes at ``va`` (may span pages); returns bytes."""
        out = bytearray()
        cursor = int(va)
        remaining = size
        while remaining > 0:
            page = yield from self.ensure_page(pdid, cursor, write=False)
            offset = cursor - page.va
            take = min(remaining, PAGE_SIZE - offset)
            if page.data is not None:
                out += page.data[offset : offset + take]
            else:
                out += bytes(take)
            cursor += take
            remaining -= take
        return bytes(out)

    def store_bytes(self, pdid: int, va: int, data: bytes) -> Generator:
        """Write ``data`` at ``va`` (may span pages)."""
        cursor = int(va)
        view = memoryview(data)
        while view:
            page = yield from self.ensure_page(pdid, cursor, write=True)
            offset = cursor - page.va
            take = min(len(view), PAGE_SIZE - offset)
            payload = page.data
            if payload is not None:
                if isinstance(payload, bytes):
                    # Copy on write: the fill shared the fetched bytes; the
                    # first store gives this blade a private page.
                    payload = page.data = bytearray(payload)
                payload[offset : offset + take] = view[:take]
            page.dirty = True
            cursor += take
            view = view[take:]
        return None

    # -- trace-replay thread --------------------------------------------------

    def run_thread(
        self,
        pdid: int,
        accesses: AccessOrStream,
        consistency: ConsistencyModel = ConsistencyModel.TSO,
        store_buffer_capacity: int = 32,
    ) -> Generator:
        """Replay an access stream as one execution thread.

        ``accesses`` is ideally an :class:`AccessStream` (the traces'
        ``stream()`` form); any ``(va, is_write)`` iterable is coerced.
        Returns the number of accesses performed.  Local hits accumulate
        DRAM time and flush it to the event loop in batches.  A hit needs
        ``pdid``'s PTE, as in :meth:`ensure_page`.
        """
        stream = AccessStream.coerce(accesses)
        vas = stream.vas
        write_flags = stream.writes
        if consistency is not ConsistencyModel.PSO:
            result = yield from self._run_thread_batched(
                pdid, vas, write_flags, len(vas)
            )
            return result
        # PSO: the per-access loop, so store-buffer interleavings see
        # every read of a page with a write still in flight.
        store_buffer = StoreBuffer(store_buffer_capacity)
        dram_access_us = self.config.dram_access_us
        cache_lookup = self.cache.lookup
        local_debt = 0.0
        count = len(vas)
        steal_seen = self.steal_time_us
        for i in range(count):
            va = vas[i]
            is_write = write_flags[i]
            if self.steal_time_us != steal_seen:
                # Pay for TLB-shootdown IPIs that interrupted this core.
                local_debt += self.steal_time_us - steal_seen
                steal_seen = self.steal_time_us
            page_va = va - (va % PAGE_SIZE)
            if not is_write:
                pending = store_buffer.pending_for(page_va)
                if pending is not None and not pending.triggered:
                    if local_debt:
                        yield local_debt
                        local_debt = 0.0
                    yield pending
            hit = cache_lookup(va, is_write, pdid)
            if hit is not None:
                local_debt += dram_access_us
                if local_debt >= LOCAL_TIME_BATCH_US:
                    yield local_debt
                    local_debt = 0.0
                continue
            if local_debt:
                yield local_debt
                local_debt = 0.0
                if cache_lookup(va, is_write, pdid) is not None:
                    # A sibling's fault landed the page while this thread
                    # paid its debt: the kernel finds the PTE, no fault.
                    local_debt = dram_access_us
                    continue
            if is_write:
                yield from self._issue_async_write(pdid, page_va, store_buffer)
            else:
                yield from self._fault(pdid, page_va, False)
        drain = store_buffer.drain_events()
        if drain:
            yield self.engine.all_of(drain)
        if local_debt:
            yield local_debt
        return count

    def _run_thread_batched(self, pdid: int, vas, write_flags, count) -> Generator:
        """TSO replay body of :meth:`run_thread`.

        Access-for-access equivalent to a per-access loop: a batch covers
        only accesses that provably cannot fault (resident with the needed
        permission), and nothing a batch observes -- cache contents, the
        steal-time account -- can change without this thread yielding, which
        batches never do.  The first miss or permission miss falls out to
        the exact per-access fault path; the debt-flush points (crossing
        ``LOCAL_TIME_BATCH_US``, and pre-fault) are the PSO loop's.  Paying
        the pre-fault debt yields, so the access is tested once more before
        it faults: a sibling's fault may have made the page resident.
        """
        engine = self.engine
        consume = self.cache.consume_hit_run
        cache_lookup = self.cache.lookup
        dram_access_us = self.config.dram_access_us
        local_debt = 0.0
        steal_seen = self.steal_time_us
        i = 0
        while i < count:
            steal_now = self.steal_time_us
            if steal_now != steal_seen:
                # Pay for TLB-shootdown IPIs that interrupted this core.
                local_debt += steal_now - steal_seen
                steal_seen = steal_now
            j, local_debt = consume(
                vas, write_flags, i, count,
                local_debt, LOCAL_TIME_BATCH_US, dram_access_us, pdid,
            )
            if j > i:
                engine.batched_retires += 1
                i = j
                if local_debt >= LOCAL_TIME_BATCH_US:
                    yield local_debt
                    local_debt = 0.0
                continue
            va = vas[i]
            is_write = write_flags[i]
            if local_debt:
                yield local_debt
                local_debt = 0.0
                if cache_lookup(va, is_write, pdid) is not None:
                    # A sibling's fault landed the page while this thread
                    # paid its debt: the kernel finds the PTE, no fault.
                    local_debt = dram_access_us
                    i += 1
                    continue
            page = yield from self._fault(pdid, va - (va % PAGE_SIZE), bool(is_write))
            if is_write:
                page.dirty = True
            i += 1
        if local_debt:
            yield local_debt
        return count

    def _issue_async_write(
        self, pdid: int, page_va: int, store_buffer: StoreBuffer
    ) -> Generator:
        """PSO write issue: hand the fault to the network asynchronously."""
        while store_buffer.full:
            oldest = store_buffer.oldest()
            if oldest is None:
                break
            yield oldest
        completion = self.engine.event()

        def write_runner() -> Generator:
            try:
                page = yield from self._fault(pdid, page_va, True)
                page.dirty = True
            finally:
                store_buffer.complete(page_va)
                completion.succeed()

        self.engine.process(write_runner(), name=f"pso-write-{page_va:#x}")
        store_buffer.add(page_va, completion)
        # Issuing costs only a store-buffer insert locally.
        yield self.config.dram_access_us
