"""Page/region migration between memory blades (Section 4.1, "Transparency
via outlier entries").

MIND's one-to-one VA->PA mapping still supports OS-style page migration:
the control plane moves a region's backing store to another memory blade
and installs a more-specific *outlier* translation entry; TCAM
longest-prefix match makes the new route take effect atomically for the
data path, with no application-visible change.

Migration is how a rack rebalances memory hotspots and -- the operational
payoff -- how a memory blade is *retired*: :meth:`evacuate_blade` drains
every allocation off a blade so it can be removed live.

The flow for one region:

1. **Quiesce**: invalidate the region at every compute blade (flushing
   dirty pages), so the source memory blade holds the ground truth.
2. **Copy**: RDMA-read each page from the source and RDMA-write it to the
   destination, through the switch.
3. **Re-route**: install the outlier entry (PCIe rule update); subsequent
   faults fetch from the destination blade.
4. **Release**: return the source physical range to its allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List

from ..sim.engine import Engine
from ..sim.network import CONTROL_MSG_BYTES, PAGE_SIZE
from ..sim.stats import StatsCollector
from ..switchsim.control_cpu import ControlCpu
from ..switchsim.packets import InvalidationRequest
from .addressing import AddressSpace
from ..alloc import GlobalAllocator, OutOfMemoryError
from .coherence import CoherenceProtocol
from .directory import CoherenceState


class MigrationError(RuntimeError):
    """A migration could not be performed."""


@dataclass
class MigrationRecord:
    """Bookkeeping for one migrated range (needed to undo / free later)."""

    va_base: int
    length: int
    src_blade: int
    dst_blade: int
    dst_pa: int
    #: the shadow allocation on the destination backing the data.
    dst_shadow_va: int


class MigrationManager:
    """Control-plane migration engine."""

    def __init__(
        self,
        engine: Engine,
        coherence: CoherenceProtocol,
        address_space: AddressSpace,
        allocator: GlobalAllocator,
        control_cpu: ControlCpu,
        stats: StatsCollector,
    ):
        self.engine = engine
        self.coherence = coherence
        self.address_space = address_space
        self.allocator = allocator
        self.control_cpu = control_cpu
        self.stats = stats
        #: va_base -> record, for migrated ranges currently in effect.
        self.records: Dict[int, MigrationRecord] = {}

    # -- the core flow -----------------------------------------------------

    def migrate_range(self, va_base: int, length: int, dst_blade: int) -> Generator:
        """Move ``[va_base, va_base+length)`` to ``dst_blade``.

        ``length`` must be a naturally aligned power of two (one outlier
        prefix).  Returns the :class:`MigrationRecord`.
        """
        if length <= 0 or length & (length - 1):
            raise MigrationError("migration length must be a power of two")
        if va_base % length:
            raise MigrationError("migration range must be naturally aligned")
        src = self.address_space.translate(va_base)
        if src.blade_id == dst_blade:
            raise MigrationError("source and destination blade are the same")
        prior = self.records.get(va_base)
        if prior is not None and prior.length != length:
            raise MigrationError(
                "re-migration must cover the same range as the prior one"
            )
        # Reserve physical space on the destination via a shadow allocation.
        dst_base_va = self.address_space.blade_va_base(dst_blade)
        try:
            shadow = self.allocator.allocate_on(dst_blade, length, alignment=length)
        except OutOfMemoryError as exc:
            raise MigrationError(f"destination blade {dst_blade} full") from exc
        dst_pa = shadow - dst_base_va

        # 1. Quiesce the range so the source holds the latest bytes.
        yield from self._quiesce(va_base, length)

        # 2. Copy page by page through the switch.
        src_blade_obj = self.coherence.memory_blade(src.blade_id)
        dst_blade_obj = self.coherence.memory_blade(dst_blade)
        for offset in range(0, length, PAGE_SIZE):
            yield from self._copy_page(
                src_blade_obj, src.pa + offset, dst_blade_obj, dst_pa + offset
            )
        self.stats.incr("pages_migrated", length // PAGE_SIZE)

        # 3. Re-route: the outlier entry shadows the blade-range entry.  A
        # re-migration first retires the previous hop's route and shadow.
        if prior is not None:
            self.address_space.remove_outlier(prior.va_base, prior.length)
            try:
                self.allocator.free(prior.dst_blade, prior.dst_shadow_va)
            except KeyError:
                pass  # the prior destination blade has been retired
        self.address_space.add_outlier(va_base, length, dst_blade, dst_pa)
        yield from self.control_cpu.apply_rule_update()

        record = MigrationRecord(
            va_base=va_base,
            length=length,
            src_blade=src.blade_id,
            dst_blade=dst_blade,
            dst_pa=dst_pa,
            dst_shadow_va=shadow,
        )
        self.records[va_base] = record
        self.stats.incr("migrations")
        # Note: the *source* physical range stays reserved -- the vma still
        # owns that VA under the identity mapping, and releasing it would
        # let a future allocation collide with the outlier route.  It is
        # returned at munmap time (see release_migration), or abandoned
        # wholesale when the source blade is retired.
        return record

    def release_migration(self, va_base: int) -> None:
        """Undo a migration's bookkeeping at munmap time: remove the
        outlier route and free the destination shadow allocation."""
        record = self.records.pop(va_base, None)
        if record is None:
            return
        self.address_space.remove_outlier(record.va_base, record.length)
        self.allocator.free(record.dst_blade, record.dst_shadow_va)

    def _quiesce(self, va_base: int, length: int) -> Generator:
        """Invalidate + flush the range everywhere; reset directory state."""
        directory = self.coherence.directory
        for region in list(directory.regions()):
            if region.base >= va_base + length or region.end <= va_base:
                continue
            gate = yield from self.coherence.pending.admit_control(
                region.base, region
            )
            try:
                if directory.find(region.base) is not region:
                    continue
                targets = sorted(
                    region.sharers
                    | ({region.owner} if region.owner is not None else set())
                )
                if targets:
                    inval = InvalidationRequest(
                        region_base=region.base,
                        region_size=region.size,
                        sharers=frozenset(targets),
                        requester_port=-1,
                        target_va=-1,
                    )
                    yield from self.coherence.invalidation.invalidate_all(
                        inval, targets, region
                    )
                region.state = CoherenceState.INVALID
                region.sharers.clear()
                region.owner = None
                directory.release(region)
            finally:
                self.coherence.pending.release_control(gate)
        # Wait out any still-in-flight asynchronous flushes for the range.
        yield from self.coherence.drain_writebacks(va_base, length)

    def _copy_page(self, src_blade, src_pa, dst_blade, dst_pa) -> Generator:
        """One page: RDMA read from source, RDMA write to destination."""
        config = self.coherence.config
        # Switch -> source: read request; source streams the page back.
        yield from self.engine.subtask(
            src_blade.port.from_switch.transfer(CONTROL_MSG_BYTES)
        )
        yield config.memory_service_us + config.dram_access_us
        data = src_blade.read_page(src_pa)
        yield from self.engine.subtask(src_blade.port.to_switch.transfer(PAGE_SIZE))
        # Switch -> destination: write the page; destination ACKs.
        yield from self.engine.subtask(dst_blade.port.from_switch.transfer(PAGE_SIZE))
        yield config.memory_service_us + config.dram_access_us
        dst_blade.write_page(dst_pa, data)
        yield from self.engine.subtask(
            dst_blade.port.to_switch.transfer(CONTROL_MSG_BYTES)
        )

    # -- operational commands --------------------------------------------------

    def evacuate_blade(self, blade_id: int, tasks: List) -> Generator:
        """Drain every vma backed by ``blade_id`` to the other blades.

        ``tasks`` is the controller's task list; each task's vmas currently
        routed to the retiring blade are migrated.  After this completes
        the blade holds no live data; :meth:`retire_blade` then removes it
        from translation and allocation.  Returns the migrated vma count.
        """
        others = [b for b in self.allocator.blade_ids if b != blade_id]
        if not others:
            raise MigrationError("no destination blades available")
        migrated = 0
        for task in tasks:
            for base, (vma, _home_blade) in list(task.vmas.items()):
                current = self.address_space.translate(base)
                if current.blade_id != blade_id:
                    continue
                # Least-loaded destination among the survivors.
                dst = min(
                    others,
                    key=lambda b: self.allocator.blade(b).allocated_bytes,
                )
                yield from self.migrate_range(vma.base, vma.length, dst)
                migrated += 1
        return migrated

    def retire_blade(self, blade_id: int, tasks: List) -> Generator:
        """Full live-retirement: evacuate, then drop the blade's
        translation entry and allocator range."""
        migrated = yield from self.evacuate_blade(blade_id, tasks)
        self.address_space.remove_blade(blade_id)
        self.allocator.remove_blade(blade_id, force=True)
        self.stats.incr("blades_retired")
        return migrated
