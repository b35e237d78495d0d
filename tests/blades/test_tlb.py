"""Unit tests for the page store's per-domain PTEs and TLB-shootdown pricing.

A compute blade's local PTEs live on its cached pages (one writable flag
per protection domain), so these tests drive :class:`PageCache` directly
and price shootdowns through a blade's invalidation handler.
"""

import pytest

from repro.blades.cache import PageCache
from repro.sim.network import PAGE_SIZE
from repro.switchsim.packets import InvalidationRequest

from conftest import small_cluster


@pytest.fixture
def cache():
    return PageCache(capacity_pages=64)


@pytest.fixture
def blade_cluster():
    cluster = small_cluster(num_compute=1)
    return cluster, cluster.compute_blades[0]


def invalidate(cluster, blade, base, size, downgrade=False, keep_dirty=False):
    """Run one region invalidation on ``blade``; returns its ACK."""
    return cluster.run_process(
        blade.handle_invalidation(
            InvalidationRequest(
                region_base=base,
                region_size=size,
                sharers=frozenset({blade.port.port_id}),
                requester_port=-1,
                downgrade_to_shared=downgrade,
                keep_dirty=keep_dirty,
            )
        )
    )


def shootdown_price(n):
    """The modelled cost of shooting down ``n`` PTEs in one batch (us)."""
    return 3.0 + 0.15 * (n - 1)


def test_map_and_contains(cache):
    cache.insert(0x1000, None, writable=True)
    assert 0x1000 in cache
    assert 0x1800 in cache  # same page
    assert 0x2000 not in cache


def test_entry_lookup(cache):
    cache.insert(0x1000, None, writable=False)
    assert cache.peek(0x1000).domains == {0: False}


def test_unmap(cache):
    cache.insert(0x1000, None, writable=True)
    assert cache.drop(0x1000) is not None
    assert cache.drop(0x1000) is None
    assert len(cache) == 0


def test_entries_in_range(cache):
    for i in range(4):
        cache.insert(i * PAGE_SIZE, None, writable=True)
    assert len(cache.pages_in(0, 2 * PAGE_SIZE)) == 2


class TestShootdown:
    def test_unmap_shootdown_cost(self, blade_cluster):
        cluster, blade = blade_cluster
        blade.cache.insert(0x0, None, writable=True)
        blade.cache.insert(0x1000, None, writable=True)
        ack = invalidate(cluster, blade, 0, 2 * PAGE_SIZE)
        assert ack.tlb_shootdown_us == pytest.approx(shootdown_price(2))
        assert len(blade.cache) == 0
        assert blade.steal_time_us == ack.tlb_shootdown_us
        assert cluster.stats.breakdown("invalidation")["tlb"] == pytest.approx(
            shootdown_price(2)
        )

    def test_no_mapped_pages_no_cost(self, blade_cluster):
        cluster, blade = blade_cluster
        assert invalidate(cluster, blade, 0, PAGE_SIZE).tlb_shootdown_us == 0.0
        # A resident page no domain maps any more is dropped without one.
        blade.cache.insert(0x0, None, writable=True, pdid=3)
        blade.cache.unmap_domain_range(3, 0, PAGE_SIZE)
        ack = invalidate(cluster, blade, 0, PAGE_SIZE)
        assert ack.tlb_shootdown_us == 0.0 and ack.dropped_pages == 1
        assert blade.steal_time_us == 0.0
        assert "tlb" not in cluster.stats.breakdown("invalidation")

    def test_downgrade_write_protects(self, cache):
        cache.insert(0x0, None, writable=True)
        outcome = cache.invalidate_region(0, PAGE_SIZE, downgrade_to_shared=True)
        assert outcome.ptes_shot_down == 1
        assert cache.peek(0x0).domains == {0: False}

    def test_downgrade_of_read_only_pages_free(self, blade_cluster):
        """Write-protecting already-read-only PTEs needs no shootdown."""
        cluster, blade = blade_cluster
        blade.cache.insert(0x0, None, writable=False)
        ack = invalidate(cluster, blade, 0, PAGE_SIZE, downgrade=True)
        assert ack.tlb_shootdown_us == 0.0
        assert ack.dropped_pages == 1  # downgraded, still resident
        assert 0x0 in blade.cache

    def test_shootdown_scoped_to_region(self, cache):
        cache.insert(0x0, None, writable=True)
        cache.insert(0x5000, None, writable=True)
        outcome = cache.invalidate_region(0, PAGE_SIZE, False)
        assert outcome.ptes_shot_down == 1
        assert cache.peek(0x5000).domains == {0: True}

    def test_cost_scales_with_batch(self, blade_cluster):
        cluster, blade = blade_cluster
        for i in range(8):
            blade.cache.insert(i * PAGE_SIZE, None, writable=True)
        big = invalidate(cluster, blade, 0, 8 * PAGE_SIZE).tlb_shootdown_us
        blade.cache.insert(0x100000, None, writable=True)
        small = invalidate(cluster, blade, 0x100000, PAGE_SIZE).tlb_shootdown_us
        assert big == pytest.approx(shootdown_price(8))
        assert small == pytest.approx(shootdown_price(1))
        assert big > small


class TestPerDomain:
    """Cached pages must not leak between protection domains (Sec 3.2)."""

    def test_domains_map_independently(self, cache):
        cache.insert(0x1000, None, writable=True, pdid=1)
        assert cache.lookup(0x1000, write=True, pdid=1) is not None
        assert cache.lookup(0x1000, write=False, pdid=2) is None
        assert cache.peek(0x1000).domains == {1: True}

    def test_unmap_page_clears_all_domains(self, cache):
        cache.insert(0x1000, None, writable=True, pdid=1)
        cache.insert(0x1000, None, writable=False, pdid=2)
        page = cache.drop(0x1000)
        assert page.domains == {1: True, 2: False}
        assert cache.lookup(0x1000, write=False, pdid=1) is None
        assert cache.lookup(0x1000, write=False, pdid=2) is None

    def test_unmap_domain_range_scoped(self, cache):
        cache.insert(0x1000, None, writable=True, pdid=1)
        cache.insert(0x1000, None, writable=False, pdid=2)
        cache.insert(0x5000, None, writable=True, pdid=1)
        cache.unmap_domain_range(1, 0, 0x2000)
        assert cache.peek(0x1000).domains == {2: False}  # other domain kept
        assert cache.peek(0x5000).domains == {1: True}  # outside range kept
        assert len(cache) == 2  # revocation leaves the pages resident

    def test_shootdown_covers_all_domains(self, blade_cluster):
        cluster, blade = blade_cluster
        blade.cache.insert(0x1000, None, writable=True, pdid=1)
        blade.cache.insert(0x1000, None, writable=True, pdid=2)
        ack = invalidate(cluster, blade, 0, 0x2000)
        assert ack.tlb_shootdown_us == pytest.approx(shootdown_price(2))
        assert len(blade.cache) == 0

    def test_contains_any_domain(self, cache):
        cache.insert(0x1000, None, writable=True, pdid=7)
        assert 0x1000 in cache

    def test_drop_prices_read_only_ptes_too(self, blade_cluster):
        cluster, blade = blade_cluster
        blade.cache.insert(0x1000, None, writable=True, pdid=1)
        blade.cache.insert(0x1000, None, writable=False, pdid=2)
        ack = invalidate(cluster, blade, 0, 0x2000)
        assert ack.tlb_shootdown_us == pytest.approx(shootdown_price(2))

    @pytest.mark.parametrize("keep_dirty", [False, True])
    def test_downgrade_prices_only_writable_ptes(self, blade_cluster, keep_dirty):
        cluster, blade = blade_cluster
        blade.cache.insert(0x1000, None, writable=True, pdid=1)
        blade.cache.insert(0x1000, None, writable=False, pdid=2)
        blade.cache.insert(0x2000, None, writable=False, pdid=1)
        ack = invalidate(
            cluster, blade, 0, 0x4000, downgrade=True, keep_dirty=keep_dirty
        )
        assert ack.tlb_shootdown_us == pytest.approx(shootdown_price(1))
        assert blade.cache.peek(0x1000).domains == {1: False, 2: False}

    def test_revoke_keeps_other_domain_and_page(self, cache):
        cache.insert(0x1000, None, writable=True, pdid=1)
        cache.insert(0x1000, None, writable=False, pdid=2)
        cache.unmap_domain_range(2, 0x1000, PAGE_SIZE)
        assert cache.lookup(0x1000, write=True, pdid=1) is not None
        assert cache.lookup(0x1000, write=False, pdid=2) is None
        outcome = cache.invalidate_region(0, 0x2000, downgrade_to_shared=False)
        assert outcome.ptes_shot_down == 1

    def test_fill_never_lowers_permission(self, cache):
        cache.insert(0x1000, None, writable=True, pdid=1)
        cache.insert(0x1000, None, writable=False, pdid=1)
        assert cache.lookup(0x1000, write=True, pdid=1) is not None
