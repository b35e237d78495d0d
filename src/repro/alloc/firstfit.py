"""First-fit over one contiguous range: MIND's own allocator (Section 4.1).

Migrated from ``repro.core.allocator`` byte-for-byte in placement behaviour
(the default policy must keep ``BENCH_baseline.json`` bit-identical), with
the two hot-path fixes the legacy version needed: ``allocated_bytes`` /
``free_bytes`` are running counters maintained by the policy base class
instead of per-call re-sums, and ``free`` finds its insert position with
``bisect`` instead of a linear scan.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Tuple

from .policy import AllocatorPolicy, OutOfMemoryError, align_up


class FirstFitAllocator(AllocatorPolicy):
    """First-fit allocator over one contiguous address range.

    Holds a sorted list of free holes ``(base, size)``; allocation scans for
    the first hole that can fit an aligned block, frees coalesce adjacent
    holes.  This mirrors the boot-memory-allocator style scheme the paper
    cites [57].
    """

    name = "first-fit"

    #: control-plane bytes per free-hole record and per live allocation
    #: (base + length at 8 bytes each).
    _HOLE_RECORD = 16
    _LIVE_RECORD = 16

    def __init__(self, base: int, size: int):
        super().__init__(base, size)
        self._holes: List[Tuple[int, int]] = [(base, size)]

    @property
    def largest_hole(self) -> int:
        return max((s for _b, s in self._holes), default=0)

    def holes(self) -> List[Tuple[int, int]]:
        return list(self._holes)

    def metadata_bytes(self) -> int:
        return (
            self._HOLE_RECORD * len(self._holes)
            + self._LIVE_RECORD * len(self._live)
        )

    # -- policy internals --------------------------------------------------

    def _do_allocate(
        self, length: int, alignment: int, owner: Optional[int]
    ) -> Tuple[int, int]:
        for i, (hole_base, hole_size) in enumerate(self._holes):
            start = align_up(hole_base, alignment)
            waste = start - hole_base
            if waste + length > hole_size:
                continue
            # Carve [start, start+length) out of the hole.
            del self._holes[i]
            remainder = []
            if waste:
                remainder.append((hole_base, waste))
            tail = hole_size - waste - length
            if tail:
                remainder.append((start + length, tail))
            self._holes[i:i] = remainder
            return start, i + 1
        raise OutOfMemoryError(
            f"no hole fits {length:#x} bytes aligned to {alignment:#x}"
        )

    def _do_free(self, base: int, length: int) -> int:
        # Insert hole in sorted position (binary search), then coalesce.
        idx = bisect_left(self._holes, (base,))
        self._holes.insert(idx, (base, length))
        # Coalesce right then left.
        if idx + 1 < len(self._holes):
            nb, ns = self._holes[idx + 1]
            if base + length == nb:
                self._holes[idx] = (base, length + ns)
                del self._holes[idx + 1]
        if idx > 0:
            pb, ps = self._holes[idx - 1]
            b, s = self._holes[idx]
            if pb + ps == b:
                self._holes[idx - 1] = (pb, ps + s)
                del self._holes[idx]
        # Steps: the binary search depth plus the constant coalesce work.
        return max(1, len(self._holes).bit_length())
