"""Switch-side slab allocator: size-class free lists, bounded split/merge.

The kernel-style alternative to raw first-fit: requests round up to a size
class (powers of two plus the 3*2^k half-steps, in pages), satisfied from a
per-class free list.  An empty class *splits* a block from one of the next
few larger classes (bounded splitting: only ``SPLIT_SPAN`` classes up are
considered, so a lookup never walks the whole class ladder); otherwise a
fresh slab is carved off the bump frontier.  Frees *merge* with equal-size
buddies up to ``MERGE_DEPTH`` levels (bounded merging) and retreat the
frontier when the freed space is adjacent to it, so a fully drained blade
collapses back to one pristine extent.

Compared with first-fit this trades a little internal fragmentation (class
rounding) for near-constant allocation cost and much smaller hole churn.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from .policy import PAGE_SIZE, AllocatorPolicy, OutOfMemoryError


def _class_pages(pages: int) -> int:
    """Smallest size class (in pages) >= ``pages``: {2^k} U {3*2^k}."""
    p2 = 1 << (pages - 1).bit_length()
    three = 3 * p2 // 4
    if p2 >= 4 and pages <= three:
        return three
    return p2


def _largest_class_pages(pages: int) -> int:
    """Largest size class <= ``pages`` (for greedy remainder decomposition)."""
    p2 = 1 << (pages.bit_length() - 1)
    three = 3 * p2 // 2
    if p2 >= 2 and three <= pages:
        return three
    return p2


class SlabAllocator(AllocatorPolicy):
    """Size-class slab allocation with bounded splitting and merging."""

    name = "slab"

    #: how many larger classes an empty-class lookup may split from.
    SPLIT_SPAN = 3
    #: how many buddy-merge levels a free may climb.
    MERGE_DEPTH = 2

    _BLOCK_RECORD = 16
    _LIVE_RECORD = 16
    _CLASS_HEAD = 8

    def __init__(self, base: int, size: int):
        super().__init__(base, size)
        #: class size -> sorted free-block bases.
        self._free_lists: Dict[int, List[int]] = {}
        #: free-block base -> size, and end -> base (for frontier retreat).
        self._free_at: Dict[int, int] = {}
        self._free_end: Dict[int, int] = {}
        self._frontier = base

    @classmethod
    def padded_size(cls, length: int) -> int:
        pages = -(-max(length, PAGE_SIZE) // PAGE_SIZE)
        return _class_pages(pages) * PAGE_SIZE

    @classmethod
    def alignment_for(cls, padded: int) -> int:
        return PAGE_SIZE

    # -- free-structure helpers -------------------------------------------

    def _add_free(self, base: int, size: int) -> None:
        insort(self._free_lists.setdefault(size, []), base)
        self._free_at[base] = size
        self._free_end[base + size] = base

    def _remove_free(self, base: int, size: int) -> None:
        lst = self._free_lists[size]
        lst.remove(base)
        del self._free_at[base]
        del self._free_end[base + size]

    def _decompose(self, base: int, size: int) -> int:
        """Greedily shatter an extent into class-size free blocks."""
        steps = 0
        while size:
            piece = _largest_class_pages(size // PAGE_SIZE) * PAGE_SIZE
            self._add_free(base, piece)
            base += piece
            size -= piece
            steps += 1
        return steps

    def _retreat(self, new_frontier: int) -> int:
        """Pull the frontier back, absorbing free blocks that now touch it."""
        steps = 1
        self._frontier = new_frontier
        while True:
            block = self._free_end.get(self._frontier)
            if block is None:
                return steps
            self._remove_free(block, self._free_at[block])
            self._frontier = block
            steps += 1

    # -- policy internals --------------------------------------------------

    def _do_allocate(
        self, length: int, alignment: int, owner: Optional[int]
    ) -> Tuple[int, int]:
        # Exact class hit.
        lst = self._free_lists.get(length)
        if lst:
            base = lst.pop(0)
            del self._free_at[base]
            del self._free_end[base + length]
            return base, 1
        # Bounded splitting: only blocks within SPLIT_SPAN doublings of the
        # request may be split (larger ones would shatter into too many
        # pieces; the frontier serves those requests instead).
        steps = 1
        larger = sorted(
            s for s, blocks in self._free_lists.items() if s > length and blocks
        )
        if larger and larger[0] <= (length << self.SPLIT_SPAN):
            source_size = larger[0]
            steps += 1
            base = self._free_lists[source_size][0]
            self._remove_free(base, source_size)
            steps += self._decompose(base + length, source_size - length)
            return base, steps
        # Fresh slab off the frontier.
        if self._frontier + length <= self.base + self.size:
            base = self._frontier
            self._frontier += length
            return base, steps + 1
        raise OutOfMemoryError(
            f"no slab of {length:#x} bytes available (frontier exhausted)"
        )

    def _do_free(self, base: int, length: int) -> int:
        if base + length == self._frontier:
            return self._retreat(base)
        # Bounded buddy merging: climb while the equal-size neighbour on the
        # doubled-size boundary is free.  Doubling a class stays a class
        # (2*2^k and 2*3*2^k are both classes).
        steps = 1
        cur_base, cur_size = base, length
        for _ in range(self.MERGE_DEPTH):
            double = 2 * cur_size
            rel = cur_base - self.base
            if rel % double == 0:
                buddy = cur_base + cur_size
            elif rel % double == cur_size:
                buddy = cur_base - cur_size
            else:
                break
            if self._free_at.get(buddy) != cur_size:
                break
            self._remove_free(buddy, cur_size)
            cur_base = min(cur_base, buddy)
            cur_size = double
            steps += 1
        if cur_base + cur_size == self._frontier:
            return steps + self._retreat(cur_base)
        self._add_free(cur_base, cur_size)
        return steps

    # -- accounting views --------------------------------------------------

    @property
    def largest_hole(self) -> int:
        pristine = (self.base + self.size) - self._frontier
        in_lists = max(
            (s for s, blocks in self._free_lists.items() if blocks), default=0
        )
        return max(pristine, in_lists)

    def holes(self) -> List[Tuple[int, int]]:
        out = [(b, s) for b, s in self._free_at.items()]
        pristine = (self.base + self.size) - self._frontier
        if pristine:
            out.append((self._frontier, pristine))
        return sorted(out)

    def metadata_bytes(self) -> int:
        return (
            self._BLOCK_RECORD * len(self._free_at)
            + self._LIVE_RECORD * len(self._live)
            + self._CLASS_HEAD * len(self._free_lists)
            + 16  # frontier + bounds registers
        )
