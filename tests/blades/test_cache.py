"""Unit tests for the compute-blade DRAM page cache."""

import pytest

from repro.blades.cache import PageCache
from repro.sim.network import PAGE_SIZE


@pytest.fixture
def cache():
    return PageCache(capacity_pages=4)


class TestLookup:
    def test_miss_on_empty(self, cache):
        assert cache.lookup(0x1000, write=False) is None

    def test_hit_after_insert(self, cache):
        cache.insert(0x1000, b"x" * PAGE_SIZE, writable=False)
        page = cache.lookup(0x1000, write=False)
        assert page is not None

    def test_sub_page_addresses_hit_same_page(self, cache):
        cache.insert(0x1000, None, writable=False)
        assert cache.lookup(0x1234, write=False) is not None

    def test_write_to_read_only_is_upgrade_miss(self, cache):
        cache.insert(0x1000, None, writable=False)
        assert cache.lookup(0x1000, write=True) is None

    def test_write_hit_marks_dirty(self, cache):
        cache.insert(0x1000, None, writable=True)
        page = cache.lookup(0x1000, write=True)
        assert page.dirty

    def test_read_hit_does_not_dirty(self, cache):
        cache.insert(0x1000, None, writable=True)
        page = cache.lookup(0x1000, write=False)
        assert not page.dirty

    def test_peek_leaves_recency(self, cache):
        cache.insert(0x0, None, writable=False)
        cache.insert(0x1000, None, writable=False)
        cache.peek(0x0)
        assert [p.va for p in cache.pages_in(0, 2 * PAGE_SIZE)] == [0x0, 0x1000]

    def test_contains(self, cache):
        cache.insert(0x1000, None, writable=False)
        assert 0x1000 in cache
        assert 0x1800 in cache  # same page
        assert 0x2000 not in cache


class TestEviction:
    def test_lru_eviction_order(self, cache):
        for i in range(4):
            cache.insert(i * PAGE_SIZE, None, writable=False)
        cache.lookup(0, write=False)  # page 0 becomes most-recent
        evicted = cache.insert(4 * PAGE_SIZE, None, writable=False)
        assert [p.va for p in evicted] == [PAGE_SIZE]  # page 1 was LRU

    def test_dirty_eviction_returned_for_flush(self, cache):
        cache.insert(0, None, writable=True)
        cache.lookup(0, write=True)
        for i in range(1, 5):
            evicted = cache.insert(i * PAGE_SIZE, None, writable=False)
        assert any(p.va == 0 and p.dirty for p in evicted)

    def test_capacity_respected(self, cache):
        for i in range(10):
            cache.insert(i * PAGE_SIZE, None, writable=False)
        assert len(cache) == 4

    def test_reinsert_same_page_no_eviction(self, cache):
        cache.insert(0x1000, None, writable=False)
        evicted = cache.insert(0x1000, b"y" * PAGE_SIZE, writable=True)
        assert evicted == []
        assert len(cache) == 1
        page = cache.peek(0x1000)
        assert page.writable  # upgrade retained

    def test_drop(self, cache):
        cache.insert(0x1000, None, writable=True)
        dropped = cache.drop(0x1000)
        assert dropped.va == 0x1000
        assert cache.peek(0x1000) is None
        assert cache.drop(0x1000) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PageCache(0)


class TestInvalidation:
    def _fill_region(self, cache):
        cache.insert(0x0, None, writable=True)
        cache.lookup(0x0, write=True)  # dirty
        cache.insert(0x1000, None, writable=True)  # writable, clean
        cache.insert(0x2000, None, writable=False)  # read-only

    def test_drop_invalidation_removes_all(self, cache):
        self._fill_region(cache)
        outcome = cache.invalidate_region(0, 4 * PAGE_SIZE, downgrade_to_shared=False)
        assert len(cache) == 0
        assert [p.va for p in outcome.flushed] == [0x0]
        assert outcome.dropped == 2

    def test_downgrade_keeps_pages_read_only(self, cache):
        self._fill_region(cache)
        outcome = cache.invalidate_region(0, 4 * PAGE_SIZE, downgrade_to_shared=True)
        assert len(cache) == 3
        assert [p.va for p in outcome.flushed] == [0x0]
        for va in (0x0, 0x1000, 0x2000):
            page = cache.peek(va)
            assert not page.writable
            assert not page.dirty

    def test_invalidation_scoped_to_region(self, cache):
        cache.insert(0x0, None, writable=True)
        cache.insert(0x3000, None, writable=True)
        cache.invalidate_region(0, 0x1000, downgrade_to_shared=False)
        assert cache.peek(0x0) is None
        assert cache.peek(0x3000) is not None

    def test_empty_region_invalidation(self, cache):
        outcome = cache.invalidate_region(0x100000, 0x1000, False)
        assert outcome.pages_affected == 0

    def test_keep_dirty_downgrade_moesi(self, cache):
        """MOESI M->O: pages become read-only but stay dirty, unflushed."""
        self._fill_region(cache)
        outcome = cache.invalidate_region(
            0, 4 * PAGE_SIZE, downgrade_to_shared=True, keep_dirty=True
        )
        assert outcome.flushed == []  # nothing written back
        assert outcome.downgraded == 3
        dirty_page = cache.peek(0x0)
        assert dirty_page.dirty and not dirty_page.writable
        # Every PTE in the region is write-protected.
        assert not any(p.writable for p in cache.pages_in(0, 4 * PAGE_SIZE))

    def _dirty_out_of_order(self, cache):
        """Three dirty pages of one region, touched out of VA order."""
        for va in (0x2000, 0x0, 0x1000):
            cache.insert(va, None, writable=True)
        for va in (0x1000, 0x2000, 0x0):
            cache.lookup(va, write=True)
        return [0x1000, 0x2000, 0x0]  # least recently used first

    @pytest.mark.parametrize("downgrade", [False, True])
    def test_flushed_in_recency_order(self, cache, downgrade):
        """Write-backs are issued in the order ``flushed`` lists them, so
        that order is observable: it follows recency, not VA."""
        recency = self._dirty_out_of_order(cache)
        outcome = cache.invalidate_region(
            0, 4 * PAGE_SIZE, downgrade_to_shared=downgrade
        )
        assert [p.va for p in outcome.flushed] == recency
        assert outcome.ptes_shot_down == 3


class TestPayload:
    def test_data_copied_on_insert(self, cache):
        """A caller's bytearray is copied once, into an immutable payload:
        changing the buffer after the fill leaves the page as filled."""
        buf = bytearray(b"a" * PAGE_SIZE)
        cache.insert(0x1000, buf, writable=True)
        buf[0] = ord("z")
        page = cache.peek(0x1000)
        assert type(page.data) is bytes
        assert page.data == b"a" * PAGE_SIZE
        refill = bytearray(b"b" * PAGE_SIZE)
        cache.insert(0x1000, refill, writable=True)
        refill[0] = ord("z")
        assert page.data == b"b" * PAGE_SIZE

    def test_fetched_bytes_are_shared_not_copied(self, cache):
        fetched = b"a" * PAGE_SIZE
        cache.insert(0x1000, fetched, writable=False)
        assert cache.peek(0x1000).data is fetched
        # A refill (here a permission upgrade) shares its bytes too.
        refetched = b"b" * PAGE_SIZE
        cache.insert(0x1000, refetched, writable=True)
        assert cache.peek(0x1000).data is refetched

    def test_none_data_supported(self, cache):
        cache.insert(0x1000, None, writable=True)
        assert cache.peek(0x1000).data is None
