"""Binary buddy allocator: pow2 blocks, O(log n) split/merge cascades.

The textbook alternative with predictable cost: the blade range is seeded
as pow2 blocks, allocation pops the smallest free block that fits and
splits it down to the request size, and every free merges with its buddy
(the equal-size neighbour across the doubled-size boundary) as far as it
can.  External fragmentation is structurally bounded -- free space always
re-coalesces into aligned pow2 extents -- at the price of pow2 internal
fragmentation identical to MIND's own padding rule, plus a fixed bitmap
metadata footprint proportional to the blade size.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from .policy import PAGE_SIZE, AllocatorPolicy, OutOfMemoryError


class BuddyAllocator(AllocatorPolicy):
    """Classic binary buddy over the blade range (min block = one page)."""

    name = "buddy"

    _FREE_NODE = 16

    def __init__(self, base: int, size: int):
        super().__init__(base, size)
        #: block size -> sorted free-block bases, plus a base -> size map
        #: for O(1) buddy lookups.
        self._free_lists: Dict[int, List[int]] = {}
        self._free_at: Dict[int, int] = {}
        # Seed with a greedy pow2 decomposition (one block when the blade
        # capacity is a power of two, as MindConfig requires).
        offset = 0
        while offset < size:
            remaining = size - offset
            block = 1 << (remaining.bit_length() - 1)
            align = offset & -offset if offset else block
            block = min(block, align) if offset else block
            self._add_free(base + offset, block)
            offset += block

    def _add_free(self, block_base: int, block_size: int) -> None:
        insort(self._free_lists.setdefault(block_size, []), block_base)
        self._free_at[block_base] = block_size

    def _remove_free(self, block_base: int, block_size: int) -> None:
        self._free_lists[block_size].remove(block_base)
        del self._free_at[block_base]

    # -- policy internals --------------------------------------------------

    def _do_allocate(
        self, length: int, alignment: int, owner: Optional[int]
    ) -> Tuple[int, int]:
        # length is pow2 >= PAGE_SIZE (the default padding rule); find the
        # smallest free block that fits and split it down.
        steps = 1
        candidates = sorted(
            s for s, blocks in self._free_lists.items()
            if s >= length and blocks
        )
        if not candidates:
            raise OutOfMemoryError(f"no free block fits {length:#x} bytes")
        block_size = candidates[0]
        base = self._free_lists[block_size][0]
        self._remove_free(base, block_size)
        while block_size > length:
            block_size //= 2
            self._add_free(base + block_size, block_size)
            steps += 1
        return base, steps

    def _do_free(self, base: int, length: int) -> int:
        steps = 1
        block_base, block_size = base, length
        while block_size < self.size:
            rel = block_base - self.base
            buddy = self.base + (rel ^ block_size)
            if self._free_at.get(buddy) != block_size:
                break
            self._remove_free(buddy, block_size)
            block_base = min(block_base, buddy)
            block_size *= 2
            steps += 1
        self._add_free(block_base, block_size)
        return steps

    # -- accounting views --------------------------------------------------

    @property
    def largest_hole(self) -> int:
        return max(
            (s for s, blocks in self._free_lists.items() if blocks), default=0
        )

    def holes(self) -> List[Tuple[int, int]]:
        return sorted(self._free_at.items())

    def metadata_bytes(self) -> int:
        # Split/allocated bitmap (two bits per min-size block) plus free
        # list nodes and per-level heads.
        bitmap = (self.size // PAGE_SIZE) // 4
        levels = max(1, (self.size // PAGE_SIZE).bit_length())
        return (
            bitmap
            + 8 * levels
            + self._FREE_NODE * len(self._free_at)
        )
