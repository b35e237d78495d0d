"""GAM baseline: software DSM adapted to the disaggregated setting.

The paper's *transparent* comparison point (Section 7): GAM [35] is a
software distributed shared memory with a directory-based protocol and PSO
consistency.  Adapted to disaggregation as the paper describes, the cache
directory lives at the *compute blades* (home-partitioned by page), while
data pages live on memory blades.

The two properties the paper uses to explain GAM's scaling curves are
modelled directly:

- **Slow local accesses**: GAM is a user-level library, so *every* memory
  access -- hit or miss -- runs a software permission check that acquires a
  lock; local accesses are ~10x slower than MIND's MMU-backed hits, and the
  lock serializes enough of the path that scaling goes sub-linear past ~4
  threads on a blade (Fig. 5 left).
- **Extra home hop**: an un-cached access first contacts the page's home
  compute blade (directory op + invalidations), then fetches the page from
  its memory blade, so remote latency is at least MIND's plus a round trip.

Because local/remote latencies differ by only ~10x (vs ~100x for MIND),
extra invalidation traffic hurts GAM less -- which is exactly why GAM keeps
scaling on write-heavy workloads where MIND stalls (Fig. 5 center).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Optional, Set, Tuple

from ..blades.cache import PageCache
from ..blades.consistency import StoreBuffer
from ..blades.memory import MemoryBlade
from ..core.vma import align_down
from ..sim.engine import Engine, Event, Resource
from ..sim.network import CONTROL_MSG_BYTES, Network, NetworkConfig, PAGE_SIZE, Port
from ..sim.stats import RunResult, StatsCollector
from ..workloads.trace import AccessOrStream, AccessStream, TraceWorkload

#: Software path cost per access outside the lock (us).
SOFT_ACCESS_US = 0.65
#: Portion of the software path under the per-blade library lock (us).
SOFT_LOCK_US = 0.22


@dataclass
class GamDirEntry:
    """Directory entry at a home blade (page granularity, MSI-like)."""

    state: str = "I"  # I / S / M
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    lock: Resource = None  # type: ignore[assignment]


class GamBlade:
    """A compute blade running the GAM library."""

    def __init__(
        self,
        blade_id: int,
        engine: Engine,
        network: Network,
        cache_capacity_pages: int,
    ):
        self.blade_id = blade_id
        self.engine = engine
        self.config: NetworkConfig = network.config
        self.port: Port = network.attach(f"gam{blade_id}")
        self.cache = PageCache(cache_capacity_pages)
        self.lib_lock = Resource(engine, capacity=1)
        self._inval_resource = Resource(engine, capacity=1)
        self.directory: Dict[int, GamDirEntry] = {}
        self._inflight: Dict[int, Event] = {}

    def dir_entry(self, page_va: int) -> GamDirEntry:
        entry = self.directory.get(page_va)
        if entry is None:
            entry = GamDirEntry(lock=Resource(self.engine, capacity=1))
            self.directory[page_va] = entry
        return entry


class GamSystem:
    """The assembled GAM cluster and its workload runner."""

    name = "GAM"

    def __init__(
        self,
        num_blades: int,
        num_memory_blades: int = 4,
        cache_capacity_pages: int = 32_768,
        network_config: Optional[NetworkConfig] = None,
        memory_blade_capacity: int = 1 << 34,
    ):
        self.engine = Engine()
        self.network = Network(self.engine, network_config or NetworkConfig())
        self.stats = StatsCollector()
        self.blades = [
            GamBlade(i, self.engine, self.network, cache_capacity_pages)
            for i in range(num_blades)
        ]
        self.memory_blades = [
            MemoryBlade(i, self.network, memory_blade_capacity, store_data=False)
            for i in range(num_memory_blades)
        ]
        self._next_base = 0
        self.memory_blade_capacity = memory_blade_capacity

    # -- allocation (range-partitioned, like the adaptation needs) -----------

    def mmap(self, length: int) -> int:
        base = self._next_base
        pages = (length + PAGE_SIZE - 1) // PAGE_SIZE
        self._next_base += pages * PAGE_SIZE
        return base

    def _memory_blade_for(self, page_va: int) -> MemoryBlade:
        idx = (page_va // PAGE_SIZE) % len(self.memory_blades)
        return self.memory_blades[idx]

    def _home_blade_for(self, page_va: int) -> GamBlade:
        return self.blades[(page_va // PAGE_SIZE) % len(self.blades)]

    # -- network legs -----------------------------------------------------------

    def _rtt(self, src: Port, dst: Port, size_bytes: int) -> Generator:
        """src -> switch -> dst one-way carrying ``size_bytes``."""
        yield from self.engine.subtask(src.to_switch.transfer(size_bytes))
        yield self.config_pipeline_us()
        yield from self.engine.subtask(dst.from_switch.transfer(size_bytes))

    def config_pipeline_us(self) -> float:
        # Plain L2 forwarding through the same switch hardware.
        return self.network.config.switch_pipeline_us

    @property
    def config(self) -> NetworkConfig:
        return self.network.config

    # -- the GAM access path -------------------------------------------------------

    def access(self, blade: GamBlade, va: int, write: bool) -> Generator:
        """One GAM memory access: software check + (maybe) remote protocol."""
        # Software permission check under the library lock -- every access.
        yield blade.lib_lock.acquire()
        try:
            yield SOFT_LOCK_US
        finally:
            blade.lib_lock.release()
        yield SOFT_ACCESS_US
        page = blade.cache.lookup(va, write)
        if page is not None:
            return
        yield from self._remote_access(blade, align_down(va, PAGE_SIZE), write)

    def _remote_access(self, blade: GamBlade, page_va: int, write: bool) -> Generator:
        """Miss path: home directory transaction, then data fetch.

        Concurrent misses on the same page at the same blade coalesce, as
        GAM's per-block request merging does.
        """
        while True:
            inflight = blade._inflight.get(page_va)
            if inflight is None:
                break
            yield inflight
            if blade.cache.lookup(page_va, write) is not None:
                return
        gate = self.engine.event()
        blade._inflight[page_va] = gate
        try:
            yield from self._remote_access_inner(blade, page_va, write)
        finally:
            del blade._inflight[page_va]
            gate.succeed()

    def _remote_access_inner(
        self, blade: GamBlade, page_va: int, write: bool
    ) -> Generator:
        self.stats.incr("remote_accesses")
        home = self._home_blade_for(page_va)
        if home is not blade:
            # Requester -> home (control message).
            yield from self._rtt(blade.port, home.port, CONTROL_MSG_BYTES)
        entry = home.dir_entry(page_va)
        yield entry.lock.acquire()
        try:
            yield from self._home_transition(home, entry, blade.blade_id, page_va, write)
        finally:
            entry.lock.release()
        # Fetch the page from its memory blade (one-sided RDMA).
        mem = self._memory_blade_for(page_va)
        yield self.config.rdma_verb_overhead_us
        yield from self._rtt(blade.port, mem.port, CONTROL_MSG_BYTES)
        yield self.config.memory_service_us + self.config.dram_access_us
        yield from self._rtt(mem.port, blade.port, PAGE_SIZE)
        yield self.config.rdma_verb_overhead_us
        for victim in blade.cache.insert(page_va, None, writable=write):
            if victim.dirty:
                self.stats.incr("eviction_flushes")
                self.engine.process(self._flush(blade, victim.va))
        if write:
            blade.cache.peek(page_va).dirty = True

    def _home_transition(
        self, home: GamBlade, entry: GamDirEntry, requester: int, page_va: int, write: bool
    ) -> Generator:
        """MSI-ish transition at the home blade, with invalidations."""
        yield SOFT_ACCESS_US  # directory handler software cost
        if write:
            targets = set(entry.sharers)
            if entry.owner is not None:
                targets.add(entry.owner)
            targets.discard(requester)
            if targets:
                yield from self._invalidate(home, sorted(targets), page_va)
            entry.state = "M"
            entry.owner = requester
            entry.sharers = {requester}
        else:
            if entry.state == "M" and entry.owner is not None and entry.owner != requester:
                old_owner = entry.owner
                yield from self._invalidate(home, [old_owner], page_va)
                entry.sharers = {old_owner}
                entry.owner = None
                entry.state = "S"
            elif entry.state != "M":
                entry.state = "S"
            entry.sharers.add(requester)

    def _invalidate(self, home: GamBlade, targets: List[int], page_va: int) -> Generator:
        """Home sends per-sharer invalidations (no multicast in software)."""
        procs = [
            self.engine.process(self._invalidate_one(home, target, page_va))
            for target in targets
        ]
        yield self.engine.all_of(procs)

    def _invalidate_one(self, home: GamBlade, target: int, page_va: int) -> Generator:
        sharer = self.blades[target]
        self.stats.incr("invalidations_sent")
        yield from self._rtt(home.port, sharer.port, CONTROL_MSG_BYTES)
        yield sharer._inval_resource.acquire()
        try:
            yield SOFT_ACCESS_US
            victim = sharer.cache.peek(page_va)
            if victim is not None:
                sharer.cache.drop(page_va)
                if victim.dirty:
                    self.stats.incr("flushed_pages")
                    yield from self._flush(sharer, page_va)
                else:
                    self.stats.incr("dropped_pages")
        finally:
            sharer._inval_resource.release()
        yield from self._rtt(sharer.port, home.port, CONTROL_MSG_BYTES)

    def _flush(self, blade: GamBlade, page_va: int) -> Generator:
        mem = self._memory_blade_for(page_va)
        yield from self._rtt(blade.port, mem.port, PAGE_SIZE)
        yield self.config.memory_service_us
        self.stats.incr("pages_written_back")

    # -- workload replay -----------------------------------------------------------

    def run_thread(
        self, blade: GamBlade, accesses: AccessOrStream, store_buffer_capacity: int = 32
    ) -> Generator:
        """Replay a trace under GAM's PSO consistency."""
        stream = AccessStream.coerce(accesses)
        vas = stream.vas
        write_flags = stream.writes
        buffer = StoreBuffer(store_buffer_capacity)
        count = len(vas)
        for i in range(count):
            va = vas[i]
            is_write = write_flags[i]
            page_va = align_down(va, PAGE_SIZE)
            if not is_write:
                pending = buffer.pending_for(page_va)
                if pending is not None and not pending.triggered:
                    yield pending
                yield from self.access(blade, va, False)
            else:
                while buffer.full:
                    oldest = buffer.oldest()
                    if oldest is None:
                        break
                    yield oldest
                completion = self.engine.event()

                def run_write(va=va, completion=completion, page_va=page_va) -> Generator:
                    try:
                        yield from self.access(blade, va, True)
                    finally:
                        buffer.complete(page_va)
                        completion.succeed()

                self.engine.process(run_write())
                buffer.add(page_va, completion)
                yield SOFT_ACCESS_US  # issue cost
        drain = buffer.drain_events()
        if drain:
            yield self.engine.all_of(drain)
        return count

    def run_workload(
        self, workload: TraceWorkload, num_blades_used: Optional[int] = None
    ) -> RunResult:
        """Replay every thread of ``workload``, round-robin across blades."""
        bases = [self.mmap(spec.size_bytes) for spec in workload.region_specs()]
        traces = workload.all_traces(bases)
        gens = []
        for trace in traces:
            blade = self.blades[trace.thread_id % len(self.blades)]
            gens.append(self.run_thread(blade, trace.stream()))
        procs = [self.engine.process(g) for g in gens]
        barrier = self.engine.all_of(procs)
        self.engine.run_until_complete(barrier)
        total = sum(len(t) for t in traces)
        return RunResult(
            system=self.name,
            workload=workload.name,
            num_blades=len(self.blades),
            num_threads=workload.num_threads,
            runtime_us=self.engine.now,
            total_accesses=total,
            stats=self.stats,
            kernel_stats=self.engine.kernel_stats(),
        )
