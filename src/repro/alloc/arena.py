"""glibc-style arena allocation: per-owner heaps carved from a shared range.

The user-level allocator MIND leaves running above its kernel path, modeled
at the thesis's granularity: each owner (thread/process id) gets its own
*arena*, grown sbrk-style in chunks carved from the blade range (a shared
reserve plus a bump frontier).  Within an arena, allocation is first-fit
over that arena's own hole list -- contention-free and short, which is the
whole point of per-thread arenas -- and every live allocation pays a
chunk-header's worth of metadata, like glibc's 16-byte boundary tags.

When an arena drains completely it is *trimmed*: its chunks return to the
shared reserve (coalesced, frontier-retreating), mirroring glibc's heap
trimming.  Until then, one owner's free space is invisible to the others
-- the external-fragmentation signature that distinguishes arenas from the
switch-side global policies under skewed churn.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .policy import PAGE_SIZE, AllocatorPolicy, OutOfMemoryError, align_up

#: arena key for ownerless allocations (migration shadows).
_SHARED = -1


@dataclass
class _Arena:
    """One owner's heap: its free holes and occupancy accounting."""

    holes: List[Tuple[int, int]] = field(default_factory=list)
    chunk_bytes: int = 0
    live_bytes: int = 0


def _insert_hole(holes: List[Tuple[int, int]], base: int, length: int) -> None:
    """Insert and coalesce a hole in a sorted ``(base, size)`` list."""
    idx = bisect_left(holes, (base,))
    holes.insert(idx, (base, length))
    if idx + 1 < len(holes):
        nb, ns = holes[idx + 1]
        if base + length == nb:
            holes[idx] = (base, length + ns)
            del holes[idx + 1]
    if idx > 0:
        pb, ps = holes[idx - 1]
        b, s = holes[idx]
        if pb + ps == b:
            holes[idx - 1] = (pb, ps + s)
            del holes[idx]


class ArenaAllocator(AllocatorPolicy):
    """Per-owner first-fit arenas over a shared chunk reserve."""

    name = "arena"

    #: preferred chunk size an arena grows by (glibc: HEAP_MAX_SIZE-ish,
    #: scaled down to simulation blade sizes).
    CHUNK = 1 << 22
    _HOLE_RECORD = 16
    _LIVE_RECORD = 32  # boundary tag + allocation record
    _ARENA_RECORD = 64

    def __init__(self, base: int, size: int):
        super().__init__(base, size)
        self._arenas: Dict[int, _Arena] = {}
        #: allocation base -> owning arena key.
        self._owner_of: Dict[int, int] = {}
        #: trimmed chunks available for reuse, sorted and coalesced.
        self._reserve: List[Tuple[int, int]] = []
        self._frontier = base

    @classmethod
    def padded_size(cls, length: int) -> int:
        return align_up(max(length, PAGE_SIZE), PAGE_SIZE)

    @classmethod
    def alignment_for(cls, padded: int) -> int:
        return PAGE_SIZE

    # -- chunk acquisition -------------------------------------------------

    def _chunk_size(self, length: int) -> int:
        preferred = min(self.CHUNK, max(PAGE_SIZE, self.size // 8))
        return align_up(max(length, preferred), PAGE_SIZE)

    def _carve_extent(self, want: int, need: int) -> Optional[Tuple[int, int, int]]:
        """Take an extent >= ``need`` (ideally ``want``) from reserve or
        frontier; returns ``(base, size, steps)`` or None."""
        for target in (want, need) if want != need else (need,):
            for i, (hole_base, hole_size) in enumerate(self._reserve):
                if hole_size >= target:
                    take = min(hole_size, want)
                    del self._reserve[i]
                    if hole_size > take:
                        self._reserve.insert(i, (hole_base + take, hole_size - take))
                    return hole_base, take, i + 1
        remaining = (self.base + self.size) - self._frontier
        if remaining >= need:
            take = min(want, remaining)
            extent = (self._frontier, take, 1)
            self._frontier += take
            return extent
        return None

    def _release_to_reserve(self, base: int, length: int) -> None:
        """Return a trimmed chunk; retreat the frontier when adjacent."""
        _insert_hole(self._reserve, base, length)
        while self._reserve and (
            self._reserve[-1][0] + self._reserve[-1][1] == self._frontier
        ):
            hole_base, _hole_size = self._reserve.pop()
            self._frontier = hole_base

    # -- policy internals --------------------------------------------------

    def _do_allocate(
        self, length: int, alignment: int, owner: Optional[int]
    ) -> Tuple[int, int]:
        key = _SHARED if owner is None else owner
        arena = self._arenas.get(key)
        if arena is None:
            arena = self._arenas[key] = _Arena()
        # First-fit within the owner's own holes (page-multiple extents are
        # page-aligned, so no alignment waste inside an arena).
        for i, (hole_base, hole_size) in enumerate(arena.holes):
            if hole_size >= length:
                del arena.holes[i]
                if hole_size > length:
                    arena.holes.insert(i, (hole_base + length, hole_size - length))
                arena.live_bytes += length
                self._owner_of[hole_base] = key
                return hole_base, i + 2
        # Grow the arena by a chunk (sbrk).
        scanned = len(arena.holes)
        extent = self._carve_extent(self._chunk_size(length), length)
        if extent is None:
            raise OutOfMemoryError(
                f"no chunk fits {length:#x} bytes (arenas hold the rest)"
            )
        chunk_base, chunk_size, carve_steps = extent
        arena.chunk_bytes += chunk_size
        if chunk_size > length:
            _insert_hole(arena.holes, chunk_base + length, chunk_size - length)
        arena.live_bytes += length
        self._owner_of[chunk_base] = key
        return chunk_base, scanned + carve_steps + 1

    def _do_free(self, base: int, length: int) -> int:
        key = self._owner_of.pop(base)
        arena = self._arenas[key]
        _insert_hole(arena.holes, base, length)
        arena.live_bytes -= length
        steps = max(1, len(arena.holes).bit_length())
        if arena.live_bytes == 0:
            # Trim: the whole arena (now pure holes) returns to the reserve.
            for hole_base, hole_size in arena.holes:
                self._release_to_reserve(hole_base, hole_size)
                steps += 1
            del self._arenas[key]
        return steps

    # -- accounting views --------------------------------------------------

    @property
    def largest_hole(self) -> int:
        best = (self.base + self.size) - self._frontier
        for _base, size in self._reserve:
            best = max(best, size)
        for arena in self._arenas.values():
            for _base, size in arena.holes:
                best = max(best, size)
        return best

    def holes(self) -> List[Tuple[int, int]]:
        out = list(self._reserve)
        for arena in self._arenas.values():
            out.extend(arena.holes)
        pristine = (self.base + self.size) - self._frontier
        if pristine:
            out.append((self._frontier, pristine))
        return sorted(out)

    def arena_count(self) -> int:
        return len(self._arenas)

    def metadata_bytes(self) -> int:
        hole_records = len(self._reserve)
        for arena in self._arenas.values():
            hole_records += len(arena.holes)
        return (
            self._HOLE_RECORD * hole_records
            + self._LIVE_RECORD * len(self._live)
            + self._ARENA_RECORD * len(self._arenas)
            + 16
        )
