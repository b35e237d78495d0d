"""Bump/array allocation: a frontier pointer and almost no metadata.

The thesis's degenerate baseline: allocation advances a frontier (O(1), a
couple of registers of metadata), and ``free`` merely *retires* the bytes
-- they stay unusable until the allocator drains completely, at which point
the whole range resets (the array-allocator epoch model).  Under steady
churn the retired bytes grow monotonically, so this policy shows the worst
waste of the ablation while posting the smallest metadata footprint and
the lowest per-op cost -- the two ends of the trade-off in one policy.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .policy import PAGE_SIZE, AllocatorPolicy, OutOfMemoryError, align_up


class BumpAllocator(AllocatorPolicy):
    """Frontier allocation with retire-on-free and reset-when-empty."""

    name = "bump"

    _LIVE_RECORD = 8  # just the length, for free() accounting

    def __init__(self, base: int, size: int):
        super().__init__(base, size)
        self._frontier = base
        self._retired = 0

    @classmethod
    def padded_size(cls, length: int) -> int:
        return align_up(max(length, PAGE_SIZE), PAGE_SIZE)

    @classmethod
    def alignment_for(cls, padded: int) -> int:
        return PAGE_SIZE

    # -- policy internals --------------------------------------------------

    def _do_allocate(
        self, length: int, alignment: int, owner: Optional[int]
    ) -> Tuple[int, int]:
        if self._frontier + length > self.base + self.size:
            raise OutOfMemoryError(
                f"frontier exhausted: {length:#x} bytes over "
                f"{self._retired:#x} retired"
            )
        base = self._frontier
        self._frontier += length
        return base, 1

    def _do_free(self, base: int, length: int) -> int:
        if base + length == self._frontier:
            # Tail free: the frontier can back up without a full reset.
            self._frontier = base
        else:
            self._retired += length
        if not self._live:
            # Drained: wholesale epoch reset reclaims every retired byte.
            self._frontier = self.base
            self._retired = 0
        return 1

    # -- accounting views --------------------------------------------------

    @property
    def waste_bytes(self) -> int:
        return self._retired

    @property
    def largest_hole(self) -> int:
        return (self.base + self.size) - self._frontier

    def holes(self) -> List[Tuple[int, int]]:
        pristine = self.largest_hole
        return [(self._frontier, pristine)] if pristine else []

    def metadata_bytes(self) -> int:
        return 24 + self._LIVE_RECORD * len(self._live)
