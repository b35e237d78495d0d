"""Storage-efficient in-network address translation (Section 4.1).

MIND uses one global virtual address space, range-partitioned across memory
blades so the whole VA space maps onto a contiguous physical space: *one*
translation entry per memory blade, stored as a TCAM prefix.  Outlier
entries -- for migrated pages or static addresses baked into binaries --
are more-specific prefixes; TCAM longest-prefix match guarantees the most
specific entry wins, so an outlier transparently shadows the blade-level
range that contains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..switchsim.tcam import Tcam, TcamEntry, VA_WIDTH


class TranslationFault(RuntimeError):
    """No translation entry covers the virtual address."""


@dataclass(frozen=True)
class Translation:
    """Result of translating a VA: target blade and physical address."""

    blade_id: int
    pa: int
    outlier: bool = False


@dataclass(frozen=True)
class _XlateData:
    """TCAM entry payload: target blade + additive VA->PA delta."""

    blade_id: int
    pa_delta: int
    outlier: bool


def _prefix_size(entry: TcamEntry) -> int:
    """Size of the aligned block a prefix entry matches."""
    return ((~entry.mask) & ((1 << VA_WIDTH) - 1)) + 1


class AddressSpace:
    """The global VA space and its TCAM-backed translation table.

    ``base_va`` offsets this switch's partition of the global space: a
    single rack uses 0; in the multi-rack extension (Section 8) each
    rack's switch owns ``[base_va, base_va + blades * capacity)``.
    """

    def __init__(self, tcam: Tcam, blade_capacity: int, base_va: int = 0):
        if blade_capacity <= 0 or blade_capacity & (blade_capacity - 1):
            raise ValueError("blade capacity must be a power of two")
        if base_va % blade_capacity:
            raise ValueError("base_va must be aligned to the blade capacity")
        self.tcam = tcam
        self.blade_capacity = blade_capacity
        self.base_va = base_va
        self._blade_entries: Dict[int, TcamEntry] = {}
        self._outlier_entries: List[TcamEntry] = []
        self._next_slot = 0
        #: memoized va -> Translation.  Pure software memoization of the
        #: (deterministic) TCAM LPM result; flushed on any entry mutation.
        #: Models nothing -- the hardware does the lookup per packet either
        #: way -- it just keeps the simulator off the O(entries) scan.
        self._xlate_cache: Dict[int, Translation] = {}

    # -- blade membership -------------------------------------------------

    def add_blade(self, blade_id: int, va_base: Optional[int] = None) -> int:
        """Register a memory blade; returns the base VA of its range.

        The VA range is ``[slot * capacity, (slot+1) * capacity)`` and maps
        one-to-one onto the blade's physical range ``[0, capacity)``.  The
        next free slot is used unless ``va_base`` names the range (a backup
        switch re-installing a failed switch's entry, Section 4.4).
        """
        if blade_id in self._blade_entries:
            raise ValueError(f"blade {blade_id} already has a translation entry")
        if va_base is None:
            va_base = self.base_va + self._next_slot * self.blade_capacity
        slot = (va_base - self.base_va) // self.blade_capacity
        self._next_slot = max(self._next_slot, slot + 1)
        data = _XlateData(blade_id, pa_delta=-va_base, outlier=False)
        entry = self.tcam.insert_prefix(va_base, self.blade_capacity, data)
        self._blade_entries[blade_id] = entry
        self._xlate_cache.clear()
        return va_base

    def remove_blade(self, blade_id: int) -> None:
        entry = self._blade_entries.pop(blade_id, None)
        if entry is None:
            raise KeyError(f"no translation entry for blade {blade_id}")
        self.tcam.remove(entry)
        self._xlate_cache.clear()

    def blade_va_base(self, blade_id: int) -> int:
        entry = self._blade_entries[blade_id]
        return entry.value

    def blade_ranges(self) -> List[Tuple[int, int]]:
        """``(blade id, VA base)`` of each blade-range entry, in install order."""
        return [(blade_id, entry.value) for blade_id, entry in self._blade_entries.items()]

    def outliers(self) -> List[Tuple[int, int, int, int]]:
        """``(VA base, size, blade id, PA base)`` of each outlier route, in
        install order."""
        return [
            (e.value, _prefix_size(e), e.data.blade_id, e.value + e.data.pa_delta)
            for e in self._outlier_entries
        ]

    @property
    def num_blade_entries(self) -> int:
        return len(self._blade_entries)

    @property
    def num_outlier_entries(self) -> int:
        return len(self._outlier_entries)

    # -- translation -------------------------------------------------------

    def translate(self, va: int) -> Translation:
        """LPM lookup: the most specific (outlier first) entry wins."""
        va = int(va)  # tolerate numpy integer inputs
        cached = self._xlate_cache.get(va)
        if cached is not None:
            return cached
        if not 0 <= va < (1 << VA_WIDTH):
            raise TranslationFault(f"va {va:#x} outside the {VA_WIDTH}-bit space")
        entry = self.tcam.lookup(va)
        if entry is None or not isinstance(entry.data, _XlateData):
            raise TranslationFault(f"no translation for va {va:#x}")
        data: _XlateData = entry.data
        result = Translation(data.blade_id, va + data.pa_delta, data.outlier)
        self._xlate_cache[va] = result
        return result

    # -- outliers (page migration, static binary addresses) ---------------

    def add_outlier(self, va_base: int, size: int, blade_id: int, pa_base: int) -> None:
        """Install a more-specific mapping for a migrated/static region.

        ``size`` must be an aligned power of two (a single prefix).  LPM
        makes this entry shadow the containing blade-range entry.
        """
        data = _XlateData(blade_id, pa_delta=pa_base - va_base, outlier=True)
        entry = self.tcam.insert_prefix(va_base, size, data)
        self._outlier_entries.append(entry)
        self._xlate_cache.clear()

    def remove_outlier(self, va_base: int, size: int) -> None:
        for entry in self._outlier_entries:
            if entry.value == va_base and isinstance(entry.data, _XlateData) and entry.data.outlier:
                if _prefix_size(entry) == size:
                    self._outlier_entries.remove(entry)
                    self.tcam.remove(entry)
                    self._xlate_cache.clear()
                    return
        raise KeyError(f"no outlier entry at {va_base:#x} size {size:#x}")

    def migrate(self, va_base: int, size: int, dst_blade: int, dst_pa: int) -> None:
        """Move a region to another blade by installing an outlier entry.

        The data copy itself is performed by the caller (control plane);
        this updates addressing so subsequent accesses route to ``dst_blade``.
        """
        self.add_outlier(va_base, size, dst_blade, dst_pa)
