"""The Section 2.2 strawmen: transparent DSM adaptations to disaggregation.

The paper motivates in-network management by analyzing two natural ways to
adapt classic DSM to a disaggregated rack, both of which pay *multiple
sequential remote round trips* per un-cached access:

- **compute-centric**: each compute blade is home for a partition of the
  address space and keeps its page table + coherence directory.  An
  un-cached access goes requester -> home compute blade (metadata +
  transition + invalidations) -> memory blade fetch -> requester.
- **memory-centric**: metadata lives at the home *memory* blade.  Same
  sequence, but the home hop lands on a memory blade, which therefore
  needs CPU cycles (contradicting CPU-less memory blades).

MIND collapses the home hop into the switch the request already traverses
(half a round trip), which is the core latency argument of Section 3.
These models exist to reproduce that argument quantitatively
(``benchmarks/test_motivation_dsm_latency.py``); they share the latency
constants with every other system for a fair comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Set

from ..blades.cache import PageCache
from ..blades.memory import MemoryBlade
from ..core.vma import align_down
from ..sim.engine import Engine, Resource
from ..sim.network import CONTROL_MSG_BYTES, Network, NetworkConfig, PAGE_SIZE, Port
from ..sim.stats import StatsCollector

#: software metadata handling at a home node (page-table walk + directory
#: transition in kernel code).
HOME_HANDLER_US = 1.0


class DsmFlavor(enum.Enum):
    """Where the home metadata lives (Section 2.2's two adaptations)."""

    COMPUTE_CENTRIC = "compute-centric"
    MEMORY_CENTRIC = "memory-centric"


@dataclass
class DsmDirEntry:
    state: str = "I"  # I / S / M
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None


class DsmNode:
    """A compute blade in the strawman DSM."""

    def __init__(self, node_id: int, engine: Engine, network: Network, cache_pages: int):
        self.node_id = node_id
        self.port: Port = network.attach(f"dsm{node_id}")
        self.cache = PageCache(cache_pages)
        self.handler = Resource(engine, capacity=1)


class TransparentDsm:
    """A home-based DSM over disaggregated memory (either flavor)."""

    def __init__(
        self,
        flavor: DsmFlavor,
        num_compute: int = 2,
        num_memory: int = 2,
        cache_pages: int = 1024,
        network_config: Optional[NetworkConfig] = None,
    ):
        self.flavor = flavor
        self.engine = Engine()
        self.network = Network(self.engine, network_config or NetworkConfig())
        self.stats = StatsCollector()
        self.nodes = [
            DsmNode(i, self.engine, self.network, cache_pages)
            for i in range(num_compute)
        ]
        self.memory_blades = [
            MemoryBlade(i, self.network, 1 << 30, store_data=False)
            for i in range(num_memory)
        ]
        #: memory-centric homes need a handler resource at the memory blade
        #: (i.e. a CPU on the memory blade -- the design's own drawback).
        self._memory_handlers = [
            Resource(self.engine, capacity=1) for _ in self.memory_blades
        ]
        self.directory: Dict[int, DsmDirEntry] = {}
        self._next_va = 0

    @property
    def config(self) -> NetworkConfig:
        return self.network.config

    def mmap(self, length: int) -> int:
        base = self._next_va
        self._next_va += -(-length // PAGE_SIZE) * PAGE_SIZE
        return base

    # -- topology helpers ---------------------------------------------------

    def _memory_blade_for(self, page_va: int) -> MemoryBlade:
        return self.memory_blades[(page_va // PAGE_SIZE) % len(self.memory_blades)]

    def _home_port(self, page_va: int) -> Port:
        """Where the page's metadata lives."""
        if self.flavor is DsmFlavor.COMPUTE_CENTRIC:
            node = self.nodes[(page_va // PAGE_SIZE) % len(self.nodes)]
            return node.port
        return self._memory_blade_for(page_va).port

    def _home_handler(self, page_va: int) -> Resource:
        if self.flavor is DsmFlavor.COMPUTE_CENTRIC:
            return self.nodes[(page_va // PAGE_SIZE) % len(self.nodes)].handler
        return self._memory_handlers[
            (page_va // PAGE_SIZE) % len(self.memory_blades)
        ]

    def _rtt(self, src: Port, dst: Port, size: int) -> Generator:
        yield from self.engine.subtask(src.to_switch.transfer(size))
        yield self.config.switch_pipeline_us  # plain L2 forwarding
        yield from self.engine.subtask(dst.from_switch.transfer(size))

    # -- the access path ------------------------------------------------------

    def access(self, node: DsmNode, va: int, write: bool) -> Generator:
        """One access: hardware-MMU hit, or the multi-hop miss protocol."""
        page_va = align_down(va, PAGE_SIZE)
        if node.cache.lookup(va, write) is not None:
            yield self.config.dram_access_us
            return
        self.stats.incr("remote_accesses")
        yield self.config.fault_overhead_us

        # Hop 1 (sequential): requester -> home, metadata transition there.
        home_port = self._home_port(page_va)
        entry = self.directory.setdefault(page_va, DsmDirEntry())
        if home_port is not node.port:
            yield from self._rtt(node.port, home_port, CONTROL_MSG_BYTES)
        handler = self._home_handler(page_va)
        yield handler.acquire()
        try:
            yield HOME_HANDLER_US
            yield from self._transition(entry, node, page_va, write, home_port)
        finally:
            handler.release()
        # Home replies with the grant before the data fetch can start.
        if home_port is not node.port:
            yield from self._rtt(home_port, node.port, CONTROL_MSG_BYTES)

        # Hop 2 (sequential): requester -> memory blade one-sided fetch.
        mem = self._memory_blade_for(page_va)
        yield self.config.rdma_verb_overhead_us
        yield from self._rtt(node.port, mem.port, CONTROL_MSG_BYTES)
        yield self.config.memory_service_us + self.config.dram_access_us
        yield from self._rtt(mem.port, node.port, PAGE_SIZE)
        yield self.config.rdma_verb_overhead_us
        for victim in node.cache.insert(page_va, None, writable=write):
            if victim.dirty:
                self.stats.incr("eviction_flushes")
        if write:
            node.cache.peek(page_va).dirty = True

    def _transition(self, entry, node, page_va, write, home_port) -> Generator:
        """MSI-ish metadata transition at the home, with invalidations."""
        if write:
            targets = set(entry.sharers)
            if entry.owner is not None:
                targets.add(entry.owner)
            targets.discard(node.node_id)
            if targets:
                yield from self._invalidate(home_port, sorted(targets), page_va)
            entry.state, entry.owner, entry.sharers = "M", node.node_id, {node.node_id}
        else:
            if entry.state == "M" and entry.owner not in (None, node.node_id):
                yield from self._invalidate(home_port, [entry.owner], page_va)
                entry.sharers = {entry.owner}
                entry.owner = None
            entry.state = "S"
            entry.sharers.add(node.node_id)

    def _invalidate(self, home_port: Port, targets: List[int], page_va: int) -> Generator:
        """Home sends unicast invalidations and awaits each ACK."""
        procs = [
            self.engine.process(self._invalidate_one(home_port, target, page_va))
            for target in targets
        ]
        yield self.engine.all_of(procs)

    def _invalidate_one(self, home_port: Port, target: int, page_va: int) -> Generator:
        sharer = self.nodes[target]
        self.stats.incr("invalidations_sent")
        yield from self._rtt(home_port, sharer.port, CONTROL_MSG_BYTES)
        yield self.config.invalidation_processing_us
        victim = sharer.cache.peek(page_va)
        if victim is not None:
            sharer.cache.drop(page_va)
            if victim.dirty:
                self.stats.incr("flushed_pages")
                mem = self._memory_blade_for(page_va)
                yield from self._rtt(sharer.port, mem.port, PAGE_SIZE)
                yield self.config.memory_service_us
        yield from self._rtt(sharer.port, home_port, CONTROL_MSG_BYTES)

    # -- measurement helper ------------------------------------------------------

    def measure_uncached_read(self, requester: int = 0, va: int = 0) -> float:
        """Latency of a single un-cached read (the Section 2.2 argument)."""
        node = self.nodes[requester]
        start = self.engine.now
        self.engine.run_process(self.access(node, va, write=False))
        return self.engine.now - start
