"""Ternary content-addressable memory (TCAM) model.

The Tofino's TCAM gives MIND two primitives it leans on heavily:

- **Longest-prefix match** over a packet field, used for address translation
  with *outlier* entries: the most specific entry wins, so a migrated-page
  entry shadows the blade-level range entry that contains it (Section 4.1).
- **Parallel range matching**, used for the ``<PDID, vma> -> PC`` protection
  table (Section 4.2).  A TCAM entry can only match a power-of-two aligned
  range, so arbitrary vmas are decomposed into at most ``ceil(log2 s)``
  entries by :func:`split_range_to_pow2`.

Capacity is enforced: the paper reports ~45 k match-action rules as the
switch limit; callers configure their table budgets and inserting past a
budget raises :class:`TcamFullError`, which upper layers must handle (that
pressure is what drives the Fig. 8/9 results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Virtual addresses are 48-bit, as on x86-64.
VA_WIDTH = 48


class TcamFullError(RuntimeError):
    """Raised when inserting into a TCAM table that is at capacity."""


@dataclass(frozen=True)
class TcamEntry:
    """One ternary entry: matches ``key`` iff ``(key & mask) == value``."""

    value: int
    mask: int
    priority: int
    data: Any

    def matches(self, key: int) -> bool:
        return (key & self.mask) == self.value


def prefix_mask(prefix_len: int, width: int = VA_WIDTH) -> int:
    """Mask selecting the top ``prefix_len`` bits of a ``width``-bit field."""
    if not 0 <= prefix_len <= width:
        raise ValueError(f"prefix length {prefix_len} out of range for width {width}")
    if prefix_len == 0:
        return 0
    return ((1 << prefix_len) - 1) << (width - prefix_len)


def split_range_to_pow2(base: int, length: int) -> List[Tuple[int, int]]:
    """Decompose ``[base, base+length)`` into power-of-two aligned blocks.

    This is the classical route-aggregation decomposition: repeatedly take
    the largest power-of-two block that is aligned at the current base and
    fits in the remaining length.  For a range of size ``s`` the result has
    at most ``2 * ceil(log2 s)`` blocks (and exactly one when the range is a
    naturally aligned power of two, which MIND's allocator guarantees for
    its own allocations).
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if base < 0:
        raise ValueError("base must be non-negative")
    blocks: List[Tuple[int, int]] = []
    cur, remaining = base, length
    while remaining > 0:
        align = cur & -cur if cur > 0 else 1 << remaining.bit_length()
        size = min(align, 1 << (remaining.bit_length() - 1))
        blocks.append((cur, size))
        cur += size
        remaining -= size
    return blocks


def block_to_prefix(base: int, size: int, width: int = VA_WIDTH) -> Tuple[int, int]:
    """Convert an aligned power-of-two block into a (value, mask) prefix."""
    if size <= 0 or size & (size - 1):
        raise ValueError(f"size {size} is not a power of two")
    if base % size:
        raise ValueError(f"base {base:#x} is not aligned to size {size:#x}")
    prefix_len = width - (size.bit_length() - 1)
    mask = prefix_mask(prefix_len, width)
    return base & mask, mask


class Tcam:
    """A priority-ordered ternary match table with bounded capacity.

    Lookup returns the matching entry with the highest priority (for prefix
    entries, priority is the prefix length, giving LPM semantics).  Ties are
    broken by most-recent insertion, matching how rule updates shadow stale
    rules in real switches.

    Installed entries live in an insertion-ordered dict keyed by identity,
    so :meth:`replace` and :meth:`remove` cost O(entries changed) and the
    dict's order is the insertion order the tie rule reads.
    """

    def __init__(self, capacity: int, name: str = "tcam"):
        if capacity < 1:
            raise ValueError("TCAM capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._entries: Dict[int, TcamEntry] = {}
        self.lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TcamEntry]:
        return iter(self._entries.values())

    @property
    def free(self) -> int:
        return self.capacity - len(self._entries)

    def insert(self, value: int, mask: int, priority: int, data: Any) -> TcamEntry:
        if len(self._entries) >= self.capacity:
            raise TcamFullError(
                f"{self.name}: capacity {self.capacity} exhausted"
            )
        if value & ~mask:
            raise ValueError("entry value has bits outside its mask")
        entry = TcamEntry(value, mask, priority, data)
        self._entries[id(entry)] = entry
        return entry

    def insert_prefix(
        self, base: int, size: int, data: Any, width: int = VA_WIDTH
    ) -> TcamEntry:
        """Insert an aligned power-of-two range as a single prefix entry."""
        value, mask = block_to_prefix(base, size, width)
        prefix_len = width - (size.bit_length() - 1)
        return self.insert(value, mask, prefix_len, data)

    def insert_range(
        self, base: int, length: int, data: Any, width: int = VA_WIDTH
    ) -> List[TcamEntry]:
        """Insert an arbitrary range, decomposed into power-of-two prefixes.

        All-or-nothing: if the decomposition does not fit, nothing is
        inserted and :class:`TcamFullError` is raised.
        """
        blocks = split_range_to_pow2(base, length)
        if len(blocks) > self.free:
            raise TcamFullError(
                f"{self.name}: range needs {len(blocks)} entries, {self.free} free"
            )
        return [self.insert_prefix(b, s, data, width) for b, s in blocks]

    def remove(self, entry: TcamEntry) -> None:
        """Remove the installed ``entry`` itself (not an equal one)."""
        self.replace([entry], ())

    def replace(
        self,
        old: Sequence[TcamEntry],
        rules: Sequence[Tuple[int, int, int, Any]],
    ) -> List[TcamEntry]:
        """Swap the installed entries ``old`` for ``(value, mask, priority,
        data)`` ``rules`` in one update; returns the new entries, which
        rank as the most recent inserts.

        Costs O(len(old) + len(rules)), whatever the table holds.
        All-or-nothing: if an ``old`` entry is not installed or is listed
        twice, if ``rules`` do not fit once ``old`` is gone, or if a rule
        has value bits outside its mask, the table is left unchanged.
        """
        entries = self._entries
        gone = {id(entry): entry for entry in old}
        if len(gone) != len(old):
            raise ValueError(f"{self.name}: an old entry is listed twice")
        for key, entry in gone.items():
            if entries.get(key) is not entry:
                raise ValueError(f"{self.name}: {entry} is not installed")
        if len(entries) - len(gone) + len(rules) > self.capacity:
            raise TcamFullError(
                f"{self.name}: update needs {len(rules)} entries, "
                f"{self.capacity - len(entries) + len(gone)} free"
            )
        for value, mask, _priority, _data in rules:
            if value & ~mask:
                raise ValueError("entry value has bits outside its mask")
        for key in gone:
            del entries[key]
        new = [TcamEntry(*rule) for rule in rules]
        entries.update({id(entry): entry for entry in new})
        return new

    def lookup(self, key: int) -> Optional[TcamEntry]:
        """Highest-priority match for ``key`` (LPM for prefix entries); on
        equal priority the most recent insert wins.  A linear scan, with
        the match test inlined: it runs once per entry per lookup."""
        self.lookups += 1
        best: Optional[TcamEntry] = None
        for entry in self._entries.values():
            if (key & entry.mask) == entry.value and (
                best is None or entry.priority >= best.priority
            ):
                best = entry
        return best

    def coalesce(self, width: int = VA_WIDTH) -> int:
        """Merge buddy prefix entries that carry equal data (Section 4.2).

        Two entries are buddies when they are the two halves of a
        double-sized aligned block.  Runs to fixpoint; returns the number of
        entries eliminated.
        """
        removed = 0
        changed = True
        while changed:
            changed = False
            by_key: Dict[Tuple[int, int], TcamEntry] = {
                (e.value, e.mask): e for e in self
            }
            for entry in list(self):
                if entry.mask == 0:
                    continue
                size_bit = (~entry.mask) & ((1 << width) - 1)
                size = size_bit + 1
                buddy_value = entry.value ^ size
                buddy = by_key.get((buddy_value, entry.mask))
                if buddy is None or buddy is entry or buddy.data != entry.data:
                    continue
                merged_base = min(entry.value, buddy_value)
                self.replace([entry, buddy], ())
                self.insert_prefix(merged_base, size * 2, entry.data, width)
                removed += 1
                changed = True
                break
        return removed
