"""In-switch cache directory with variable-granularity regions (Section 4.3).

The directory tracks coherence state at *region* granularity -- decoupled
from the 4 KB page granularity of cache fills and evictions (P1).  Each
region is a buddy-aligned power-of-two block of the virtual address space
between ``PAGE_SIZE`` (4 KB) and ``max_region_size`` (the paper's M, 2 MB by
default).  Entries live in a bounded SRAM register array (30 k slots in the
paper's switch); slot pressure is what the Bounded Splitting algorithm
manages.

Regions are created lazily on first access at ``initial_region_size``
(16 kB default), split/merged by the epoch controller, and reclaimed when
they return to Invalid with no sharers.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from ..sim.network import PAGE_SIZE
from ..switchsim.sram import RegisterArray, SramFullError
from .vma import align_down


class CoherenceState(enum.Enum):
    """Coherence states tracked per region.

    MSI uses I/S/M (the paper's protocol).  OWNED exists for the MOESI
    extension sketched in Section 8: the owner holds dirty data read-only
    and supplies it to readers, avoiding write-backs to memory blades.
    """

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"
    OWNED = "O"


@dataclass
class Region:
    """One directory entry: a buddy-aligned block and its MSI metadata."""

    base: int
    size: int
    state: CoherenceState = CoherenceState.INVALID
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    #: false invalidation count in the current epoch (Bounded Splitting).
    false_invalidations: int = 0
    #: total accesses routed through this entry in the current epoch.
    accesses: int = 0
    #: transient-state flag maintained by the pending-transaction table:
    #: "" (quiescent), "shared" or "exclusive" while transactions are in
    #: flight.  Split/merge/eviction avoid entries mid-transition.
    transient: str = ""

    def __post_init__(self) -> None:
        if self.size < PAGE_SIZE or self.size & (self.size - 1):
            raise ValueError(f"region size {self.size:#x} must be pow2 >= page")
        if self.base % self.size:
            raise ValueError(f"region base {self.base:#x} not aligned to {self.size:#x}")

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def num_pages(self) -> int:
        return self.size // PAGE_SIZE

    def contains(self, va: int) -> bool:
        return self.base <= va < self.end

    def buddy_base(self) -> int:
        """Base of this region's buddy (the other half of the parent)."""
        return self.base ^ self.size

    def reset_epoch_counters(self) -> None:
        self.false_invalidations = 0
        self.accesses = 0


class DirectoryFullError(RuntimeError):
    """No SRAM slot available and nothing could be reclaimed."""


class RegionDirectory:
    """The SRAM-backed set of non-overlapping regions, keyed by base VA."""

    def __init__(
        self,
        sram: RegisterArray,
        initial_region_size: int = 16 * 1024,
        max_region_size: int = 2 * 1024 * 1024,
    ):
        if initial_region_size < PAGE_SIZE or initial_region_size & (initial_region_size - 1):
            raise ValueError("initial region size must be a power of two >= 4KB")
        if max_region_size < initial_region_size or max_region_size & (max_region_size - 1):
            raise ValueError("max region size must be a power of two >= initial size")
        self.initial_region_size = initial_region_size
        self.max_region_size = max_region_size
        self.reset(sram)

    def reset(self, sram: RegisterArray) -> None:
        """Start over, all-Invalid, in ``sram`` (Section 4.4: a backup
        switch takes over with a cold directory; the region-size bounds
        are control-plane policy and stay)."""
        self.sram = sram
        self._bases: List[int] = []  # sorted region bases
        self._regions: Dict[int, Region] = {}
        self.splits = 0
        self.merges = 0
        self.reclaims = 0
        self._clock_hand = 0

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> Iterator[Region]:
        return (self._regions[b] for b in self._bases)

    @property
    def utilization(self) -> float:
        return self.sram.utilization()

    def regions(self) -> List[Region]:
        return [self._regions[b] for b in self._bases]

    # -- lookup ----------------------------------------------------------

    def find(self, va: int) -> Optional[Region]:
        """The region containing ``va``, if a directory entry exists."""
        idx = bisect.bisect_right(self._bases, va) - 1
        if idx < 0:
            return None
        region = self._regions[self._bases[idx]]
        return region if region.contains(va) else None

    # -- entry lifecycle ---------------------------------------------------

    def _insert(self, region: Region) -> Region:
        self.sram.allocate(region.base, region)
        bisect.insort(self._bases, region.base)
        self._regions[region.base] = region
        return region

    def _remove(self, region: Region) -> None:
        self.sram.release(region.base)
        idx = bisect.bisect_left(self._bases, region.base)
        del self._bases[idx]
        del self._regions[region.base]

    def _creation_size(self, va: int) -> int:
        """Largest size <= initial_region_size whose window at ``va`` is free.

        After splits and reclaims, part of the initial window may already be
        covered by other entries; shrink until the window is unoccupied.
        """
        size = self.initial_region_size
        while size > PAGE_SIZE:
            base = align_down(va, size)
            if not self._overlaps_existing(base, size):
                return size
            size //= 2
        return PAGE_SIZE

    def _overlaps_existing(self, base: int, size: int) -> bool:
        idx = bisect.bisect_left(self._bases, base + size)
        if idx > 0:
            prev = self._regions[self._bases[idx - 1]]
            if prev.end > base:
                return True
        return False

    def ensure_region(self, va: int, reclaim: bool = True) -> Region:
        """The region entry covering ``va``, creating one if necessary.

        Raises :class:`DirectoryFullError` when SRAM is exhausted and no
        Invalid entry can be reclaimed -- the coherence layer then falls
        back to forced merging (which causes false invalidations).
        """
        region = self.find(va)
        if region is not None:
            return region
        size = self._creation_size(va)
        new = Region(align_down(va, size), size)
        try:
            return self._insert(new)
        except SramFullError:
            if reclaim and self.reclaim_invalid(limit=1):
                return self._insert(new)
            raise DirectoryFullError(
                f"directory SRAM full ({self.sram.capacity} slots)"
            ) from None

    def release(self, region: Region) -> None:
        """Drop an entry (region back to Invalid with no cached copies)."""
        self._remove(region)

    def reclaim_invalid(self, limit: int = 1_000_000) -> int:
        """Free slots held by Invalid regions with no sharers (skipping
        entries with transactions in flight)."""
        victims = [
            r
            for r in self.regions()
            if r.state is CoherenceState.INVALID and not r.sharers and not r.transient
        ]
        count = 0
        for region in victims[:limit]:
            self._remove(region)
            count += 1
        self.reclaims += count
        return count

    # -- split / merge (driven by Bounded Splitting) -----------------------

    def split(self, region: Region) -> Optional[tuple]:
        """Split a region into its two buddy halves (metadata-only).

        Both halves inherit the parent's state/sharers/owner: any page of
        the parent may be cached anywhere the parent was, so the children
        must conservatively assume the same.  Returns ``(left, right)`` or
        None if the region is already at page granularity or no slot is
        free for the second entry.
        """
        if region.size <= PAGE_SIZE:
            return None
        if self.sram.free < 1 and not self.reclaim_invalid(limit=1):
            return None
        half = region.size // 2
        self._remove(region)
        left = Region(
            region.base, half, region.state, set(region.sharers), region.owner
        )
        right = Region(
            region.base + half, half, region.state, set(region.sharers), region.owner
        )
        self._insert(left)
        self._insert(right)
        self.splits += 1
        return left, right

    def mergeable(
        self, region: Region, ignore_transient: bool = False
    ) -> Optional[Region]:
        """The buddy of ``region`` if the pair can merge without invalidation.

        A metadata-only merge requires compatible states: both Invalid, both
        Shared, or both Modified/Owned by the *same* owner (or one side
        Invalid).  Anything else would leave the merged entry unable to
        describe where dirty data lives, and needs an invalidation first
        (forced merge).  Entries with transactions in flight (transient
        state set by the pending table) are never merge candidates --
        unless the caller already holds both entries' admission gates
        (``ignore_transient``), in which case its own gate IS the transient
        flag and there is nothing else in flight.
        """
        if region.size >= self.max_region_size:
            return None
        if region.transient and not ignore_transient:
            return None
        buddy = self._regions.get(region.buddy_base())
        if buddy is None or buddy.size != region.size:
            return None
        if buddy.transient and not ignore_transient:
            return None
        a, b = region.state, buddy.state
        if a is CoherenceState.INVALID or b is CoherenceState.INVALID:
            return buddy
        if a is CoherenceState.SHARED and b is CoherenceState.SHARED:
            return buddy
        dirty_states = (CoherenceState.MODIFIED, CoherenceState.OWNED)
        if a in dirty_states and b in dirty_states and region.owner == buddy.owner:
            return buddy
        return None

    def merge_any(self, limit: int = 8) -> int:
        """Opportunistically merge up to ``limit`` compatible buddy pairs.

        Used under capacity pressure: each merge frees one SRAM slot with no
        invalidation traffic.  Returns the number of merges performed.
        """
        merged = 0
        idx = 0
        while merged < limit and idx < len(self._bases):
            region = self._regions[self._bases[idx]]
            buddy = self.mergeable(region)
            if buddy is not None:
                self.merge(region, buddy)
                # Restart near the merge point; bases list shifted.
                idx = max(0, idx - 1)
                merged += 1
            else:
                idx += 1
        return merged

    def clock_victim(self, probe: int = 16) -> Optional[Region]:
        """Pick a capacity-eviction victim with a clock sweep.

        Probes up to ``probe`` entries from the rotating hand, preferring a
        Shared region (dropping clean copies is cheaper than flushing an
        owner) and colder entries.  Returns None if every probed entry is
        Invalid (those are reclaimable without eviction).
        """
        _invalid, victim = self.sweep(probe)
        return victim

    def sweep(self, probe: int = 16):
        """One O(probe) clock sweep; returns ``(invalid, victim)``.

        ``invalid`` is a reclaimable Invalid entry if one was probed (free
        to release); ``victim`` is the preferred eviction candidate
        otherwise.  This is the capacity-pressure workhorse -- it must stay
        O(probe), never O(entries), because contended workloads (M_A/M_C)
        hit it on a large share of faults (Fig. 8 left).
        """
        if not self._bases:
            return None, None
        n = len(self._bases)
        invalid: Optional[Region] = None
        best: Optional[Region] = None
        fallback: Optional[Region] = None
        for i in range(min(probe, n)):
            region = self._regions[self._bases[(self._clock_hand + i) % n]]
            if region.transient:
                # Mid-transition (pending-table entry open): not reclaimable
                # and only evictable as a last resort -- the eviction path
                # queues behind the in-flight transactions anyway.
                if region.state is not CoherenceState.INVALID and fallback is None:
                    fallback = region
                continue
            if region.state is CoherenceState.INVALID:
                if invalid is None:
                    invalid = region
                continue
            if best is None:
                best = region
            elif region.state is CoherenceState.SHARED and best.state in (
                CoherenceState.MODIFIED,
                CoherenceState.OWNED,
            ):
                best = region
            elif region.state is best.state and region.accesses < best.accesses:
                best = region
        self._clock_hand = (self._clock_hand + min(probe, n)) % max(n, 1)
        return invalid, best if best is not None else fallback

    def merge(self, region: Region, buddy: Region) -> Region:
        """Merge a buddy pair into the parent region (metadata-only)."""
        if buddy.base != region.buddy_base() or buddy.size != region.size:
            raise ValueError("regions are not buddies")
        left, right = (region, buddy) if region.base < buddy.base else (buddy, region)
        state = CoherenceState.INVALID
        owner = None
        sharers: Set[int] = set()
        dirty_states = (CoherenceState.MODIFIED, CoherenceState.OWNED)
        for part in (left, right):
            if part.state in dirty_states:
                # OWNED dominates MODIFIED: the merged entry must remember
                # that sharers may hold read copies alongside the owner.
                if state is not CoherenceState.OWNED:
                    state = part.state
                owner = part.owner
                sharers |= part.sharers
            elif part.state is CoherenceState.SHARED and state not in dirty_states:
                state = CoherenceState.SHARED
                sharers |= part.sharers
        merged = Region(left.base, left.size * 2, state, sharers, owner)
        merged.false_invalidations = left.false_invalidations + right.false_invalidations
        merged.accesses = left.accesses + right.accesses
        self._remove(left)
        self._remove(right)
        self._insert(merged)
        self.merges += 1
        return merged
