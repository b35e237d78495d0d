"""Unit and property tests for first-fit and global (balanced) allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc import (
    FirstFitAllocator,
    GlobalAllocator,
    OutOfMemoryError,
)
from repro.sim.network import PAGE_SIZE


class TestFirstFit:
    def test_allocates_from_start(self):
        alloc = FirstFitAllocator(0, 0x10000)
        assert alloc.allocate(0x1000, alignment=0x1000) == 0
        assert alloc.allocate(0x1000, alignment=0x1000) == 0x1000

    def test_alignment_respected(self):
        alloc = FirstFitAllocator(0, 0x10000)
        alloc.allocate(0x100, alignment=0x100)
        base = alloc.allocate(0x1000, alignment=0x1000)
        assert base % 0x1000 == 0

    def test_first_fit_reuses_earliest_hole(self):
        alloc = FirstFitAllocator(0, 0x10000)
        a = alloc.allocate(0x1000, alignment=0x1000)
        b = alloc.allocate(0x1000, alignment=0x1000)
        alloc.allocate(0x1000, alignment=0x1000)
        alloc.free(a)
        alloc.free(b)
        # Freeing a then b coalesces; next fit lands at the start again.
        assert alloc.allocate(0x2000, alignment=0x1000) == a

    def test_free_coalesces_adjacent_holes(self):
        alloc = FirstFitAllocator(0, 0x4000)
        a = alloc.allocate(0x1000, alignment=0x1000)
        b = alloc.allocate(0x1000, alignment=0x1000)
        c = alloc.allocate(0x1000, alignment=0x1000)
        alloc.free(a)
        alloc.free(c)
        alloc.free(b)  # middle free merges all three
        assert len(alloc.holes()) <= 2
        assert alloc.largest_hole == 0x4000

    def test_out_of_memory(self):
        alloc = FirstFitAllocator(0, 0x1000)
        alloc.allocate(0x1000, alignment=0x1000)
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(0x1000, alignment=0x1000)

    def test_fragmentation_blocks_large_alloc(self):
        alloc = FirstFitAllocator(0, 0x4000)
        blocks = [alloc.allocate(0x1000, alignment=0x1000) for _ in range(4)]
        alloc.free(blocks[0])
        alloc.free(blocks[2])
        # 0x2000 free total, but no contiguous 0x2000 hole.
        with pytest.raises(OutOfMemoryError):
            alloc.allocate(0x2000, alignment=0x1000)

    def test_free_unknown_base_rejected(self):
        with pytest.raises(KeyError):
            FirstFitAllocator(0, 0x1000).free(0x0)

    def test_accounting(self):
        alloc = FirstFitAllocator(0, 0x4000)
        alloc.allocate(0x1000, alignment=0x1000)
        assert alloc.allocated_bytes == 0x1000
        assert alloc.free_bytes == 0x3000

    def test_invalid_arguments(self):
        alloc = FirstFitAllocator(0, 0x1000)
        with pytest.raises(ValueError):
            alloc.allocate(0, alignment=0x1000)
        with pytest.raises(ValueError):
            alloc.allocate(0x100, alignment=3)

    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=1, max_value=64), st.booleans()),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100)
    def test_property_no_overlap_and_conservation(self, ops):
        """Random alloc/free churn: allocations never overlap and
        allocated + free bytes always equals the arena size."""
        arena = 1 << 20
        alloc = FirstFitAllocator(0, arena)
        live = {}
        for size_pages, do_free in ops:
            if do_free and live:
                base = next(iter(live))
                alloc.free(base)
                del live[base]
            else:
                size = size_pages * PAGE_SIZE
                try:
                    base = alloc.allocate(size, alignment=PAGE_SIZE)
                except OutOfMemoryError:
                    continue
                for other_base, other_size in live.items():
                    assert base + size <= other_base or other_base + other_size <= base
                live[base] = size
            assert alloc.allocated_bytes + alloc.free_bytes == arena


class TestGlobalAllocator:
    def _make(self, blades=4, capacity=1 << 20):
        galloc = GlobalAllocator()
        for i in range(blades):
            galloc.add_blade(i, va_base=i * capacity, size=capacity)
        return galloc

    def test_least_loaded_blade_selected(self):
        galloc = self._make()
        seen = [galloc.allocate(PAGE_SIZE).blade_id for _ in range(4)]
        assert sorted(seen) == [0, 1, 2, 3]

    def test_rounds_to_pow2_page_minimum(self):
        galloc = self._make()
        placement = galloc.allocate(100)
        assert placement.length == PAGE_SIZE
        placement = galloc.allocate(PAGE_SIZE + 1)
        assert placement.length == 2 * PAGE_SIZE

    def test_va_within_blade_range(self):
        galloc = self._make(capacity=1 << 20)
        placement = galloc.allocate(PAGE_SIZE)
        base = placement.blade_id * (1 << 20)
        assert base <= placement.va_base < base + (1 << 20)

    def test_balanced_after_many_allocations(self):
        galloc = self._make()
        for _ in range(100):
            galloc.allocate(PAGE_SIZE)
        assert galloc.jain_fairness() > 0.99

    def test_jain_fairness_skewed(self):
        galloc = self._make(blades=2)
        galloc.blade(0).allocate(PAGE_SIZE, alignment=PAGE_SIZE)
        assert galloc.jain_fairness() == pytest.approx(0.5)

    def test_jain_fairness_empty_is_one(self):
        assert self._make().jain_fairness() == 1.0

    def test_spills_to_other_blade_when_full(self):
        galloc = self._make(blades=2, capacity=1 << 13)  # two pages each
        placements = [galloc.allocate(PAGE_SIZE) for _ in range(4)]
        assert sorted(p.blade_id for p in placements) == [0, 0, 1, 1]
        with pytest.raises(OutOfMemoryError):
            galloc.allocate(PAGE_SIZE)

    def test_free_returns_capacity(self):
        galloc = self._make(blades=1, capacity=1 << 13)
        p = galloc.allocate(PAGE_SIZE)
        galloc.allocate(PAGE_SIZE)
        galloc.free(p.blade_id, p.va_base)
        galloc.allocate(PAGE_SIZE)  # must not raise

    def test_remove_blade_requires_empty(self):
        galloc = self._make(blades=2)
        p = galloc.allocate(PAGE_SIZE)
        with pytest.raises(RuntimeError):
            galloc.remove_blade(p.blade_id)
        galloc.free(p.blade_id, p.va_base)
        galloc.remove_blade(p.blade_id)
        assert p.blade_id not in galloc.blade_ids

    def test_duplicate_blade_rejected(self):
        galloc = self._make(blades=1)
        with pytest.raises(ValueError):
            galloc.add_blade(0, va_base=0, size=1 << 20)

    def test_no_blades(self):
        with pytest.raises(OutOfMemoryError):
            GlobalAllocator().allocate(PAGE_SIZE)
