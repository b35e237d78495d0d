"""Behavioural tests for the in-network MSI coherence protocol.

These drive real fault transactions through a miniature cluster and check
directory state, invalidation traffic, latency structure and reliability.
"""

import pytest

from repro.blades.compute import SegmentationFault
from repro.core.directory import CoherenceState
from repro.core.vma import PermissionClass
from repro.sim.network import PAGE_SIZE

from conftest import arm_loss, small_cluster

I, S, M = CoherenceState.INVALID, CoherenceState.SHARED, CoherenceState.MODIFIED


def setup_proc(cluster, length=1 << 20):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    base = ctl.sys_mmap(task.pid, length)
    return task.pid, base


def touch(cluster, blade_idx, pid, va, write):
    blade = cluster.compute_blades[blade_idx]
    return cluster.run_process(blade.ensure_page(pid, va, write))


class TestTransitions:
    def test_read_miss_creates_shared_region(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        region = cluster.mmu.directory.find(base)
        assert region.state is S
        assert region.sharers == {cluster.compute_blades[0].port.port_id}
        assert region.owner is None

    def test_write_miss_creates_modified_region(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert region.owner == cluster.compute_blades[0].port.port_id

    def test_second_reader_joins_sharers(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=False)
        region = cluster.mmu.directory.find(base)
        assert region.state is S
        assert len(region.sharers) == 2
        assert cluster.stats.counter("invalidations_sent") == 0

    def test_upgrade_invalidates_other_sharers(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=False)
        touch(cluster, 1, pid, base, write=True)  # S -> M
        region = cluster.mmu.directory.find(base)
        p1 = cluster.compute_blades[1].port.port_id
        assert region.state is M and region.owner == p1
        assert region.sharers == {p1}
        assert cluster.stats.counter("invalidations_sent") == 1
        # Blade 0 no longer caches the page.
        assert cluster.compute_blades[0].cache.peek(base) is None

    def test_read_steal_downgrades_owner(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=False)  # M -> S
        region = cluster.mmu.directory.find(base)
        assert region.state is S
        assert region.owner is None
        assert len(region.sharers) == 2
        # The old owner keeps a read-only copy (downgrade, not drop).
        page = cluster.compute_blades[0].cache.peek(base)
        assert page is not None
        assert not page.writable

    def test_write_steal_transfers_ownership(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=True)  # M -> M
        region = cluster.mmu.directory.find(base)
        p1 = cluster.compute_blades[1].port.port_id
        assert region.state is M and region.owner == p1
        assert cluster.compute_blades[0].cache.peek(base) is None

    def test_owner_capacity_refetch_keeps_state(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        blade = cluster.compute_blades[0]
        blade.cache.drop(base)  # simulate a capacity eviction (clean copy)
        touch(cluster, 0, pid, base, write=True)
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert cluster.stats.counter("invalidations_sent") == 0

    def test_transition_labels_recorded(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=False)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=True)
        touch(cluster, 0, pid, base, write=False)
        counters = cluster.stats.counters
        assert counters["transition:I->S"] == 1
        assert counters["transition:S->S"] == 1
        assert counters["transition:S->M"] == 1
        assert counters["transition:M->M"] == 1
        assert counters["transition:M->S"] == 1

    def test_invalidation_latency_roughly_double(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=True)
        stats = cluster.stats
        clean = stats.mean_latency("fault:I->M")
        steal = stats.mean_latency("fault:M->M")
        assert 1.6 < steal / clean < 2.4  # the paper's 9 vs 18 us structure


class TestProtectionIntegration:
    def test_unmapped_access_faults(self, cluster):
        pid, _base = setup_proc(cluster)
        with pytest.raises(SegmentationFault):
            touch(cluster, 0, pid, 0x7F00_0000_0000, write=False)

    def test_wrong_pid_rejected(self, cluster):
        pid, base = setup_proc(cluster)
        other = cluster.controller.sys_exec("other")
        with pytest.raises(SegmentationFault):
            touch(cluster, 0, other.pid, base, write=False)

    def test_read_only_write_rejected(self, cluster):
        ctl = cluster.controller
        task = ctl.sys_exec("ro")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE, PermissionClass.READ_ONLY)
        touch(cluster, 0, task.pid, base, write=False)  # reads fine
        with pytest.raises(SegmentationFault):
            touch(cluster, 1, task.pid, base, write=True)

    def test_rejection_counted_not_cached(self, cluster):
        pid, base = setup_proc(cluster)
        other = cluster.controller.sys_exec("other")
        try:
            touch(cluster, 0, other.pid, base, write=False)
        except SegmentationFault:
            pass
        assert cluster.stats.counter("protection_rejections") == 1
        assert cluster.compute_blades[0].cache.peek(base) is None


class TestFalseInvalidations:
    def test_counted_for_collateral_pages(self, cluster):
        pid, base = setup_proc(cluster)
        # Blade 0 dirties two pages of the same 16 KB region.
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 0, pid, base + PAGE_SIZE, write=True)
        # Blade 1 writes page 0: page 1 is flushed alongside -> 1 false inv.
        touch(cluster, 1, pid, base, write=True)
        assert cluster.stats.counter("false_invalidations") == 1
        region = cluster.mmu.directory.find(base)
        assert region.false_invalidations == 1

    def test_zero_when_region_holds_only_target(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=True)
        assert cluster.stats.counter("false_invalidations") == 0

    def test_flush_counts(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 0, pid, base + PAGE_SIZE, write=True)
        touch(cluster, 1, pid, base, write=True)
        assert cluster.stats.counter("flushed_pages") == 2


class TestDataPathOrdering:
    def test_stolen_write_data_visible(self, cluster):
        """M->M handoff: the new owner must see the old owner's bytes."""
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"from-blade-0"))
        data = cluster.run_process(b1.load_bytes(pid, base, 12))
        assert data == b"from-blade-0"

    def test_eviction_then_remote_read(self, cluster):
        """Dirty eviction write-back must be observed by later fetches."""
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"evicted-data"))
        # Fill blade 0's cache far past capacity to force the eviction.
        for i in range(1, 70):
            cluster.run_process(b0.ensure_page(pid, base + i * PAGE_SIZE, True))
        assert b0.cache.peek(base) is None
        data = cluster.run_process(b1.load_bytes(pid, base, 12))
        assert data == b"evicted-data"

    def test_concurrent_writers_serialize_consistently(self, cluster):
        """Racing writers on one page: directory and caches stay coherent."""
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_all(
            [
                b0.store_bytes(pid, base, b"AAAA"),
                b1.store_bytes(pid, base, b"BBBB"),
            ]
        )
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        owner_blade = b0 if region.owner == b0.port.port_id else b1
        loser_blade = b1 if owner_blade is b0 else b0
        assert owner_blade.cache.peek(base) is not None
        assert loser_blade.cache.peek(base) is None
        # The final memory image is one of the two writes, not a mix.
        final = cluster.run_process(owner_blade.load_bytes(pid, base, 4))
        assert final in (b"AAAA", b"BBBB")


class TestCapacityEviction:
    def test_directory_eviction_makes_room(self):
        cluster = small_cluster(directory_capacity=2, cache_pages=256)
        pid, base = setup_proc(cluster)
        # Touch three distinct 16 KB windows: slot pressure forces eviction.
        for i in range(3):
            touch(cluster, 0, pid, base + i * 16 * 1024, write=True)
        assert len(cluster.mmu.directory) <= 2
        assert cluster.stats.counter("directory_capacity_events") >= 1

    def test_mergeable_buddies_merge_instead_of_evicting(self):
        """Same-owner buddy regions merge metadata-only under pressure."""
        cluster = small_cluster(directory_capacity=2, cache_pages=256)
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 0, pid, base + 16 * 1024, write=True)
        touch(cluster, 0, pid, base + 32 * 1024, write=True)
        assert cluster.stats.counter("capacity_evictions") == 0
        assert cluster.mmu.directory.merges >= 1

    def test_eviction_invalidates_holders(self):
        """Non-mergeable regions (different owners) force a real eviction,
        whose collateral flushes are the capacity false invalidations."""
        cluster = small_cluster(directory_capacity=2, cache_pages=256)
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base + 16 * 1024, write=True)
        touch(cluster, 0, pid, base + 48 * 1024, write=True)
        assert cluster.stats.counter("capacity_evictions") >= 1
        assert cluster.stats.counter("flushed_pages") >= 1


class TestReliability:
    """Section 4.4 under link-level loss windows: invalidation/ACK legs
    surface the loss to the retry/reset machinery, data legs retransmit."""

    def test_lost_invalidations_retransmitted(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        arm_loss(cluster, "compute1", 0.5, direction="from_switch")
        for i in range(6):
            touch(cluster, 0, pid, base, write=True)
            touch(cluster, 1, pid, base, write=True)
        # Data-leg retransmissions bump both counters; invalidation retries
        # bump only ``retransmissions``.
        stats = cluster.stats
        assert stats.counter("retransmissions") > stats.counter("link_retransmissions")
        # Protocol still converged to a single owner.
        region = cluster.mmu.directory.find(base)
        assert region.state in (M, I)

    def test_reset_after_max_retries(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 1, pid, base, write=True)
        arm_loss(cluster, "compute1", 0.99, direction="from_switch", duration_us=5_000)
        touch(cluster, 0, pid, base, write=True)
        assert cluster.stats.counter("resets") >= 1

    def test_lost_fetches_retransmitted(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        arm_loss(cluster, "mem0", 0.5)
        for i in range(8):
            touch(cluster, 0, pid, base + i * PAGE_SIZE, write=False)
        assert cluster.stats.counter("link_retransmissions") >= 1
        # Every page still arrived.
        for i in range(8):
            assert cluster.compute_blades[0].cache.peek(base + i * PAGE_SIZE)

    def test_fetch_loss_adds_timeout_latency(self):
        from repro.core.coherence import CoherenceProtocol

        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        t0 = cluster.engine.now
        arm_loss(cluster, "mem0", 0.99, duration_us=2_000)
        touch(cluster, 0, pid, base, write=False)
        elapsed = cluster.engine.now - t0
        expected_waits = (
            CoherenceProtocol.MAX_RETRIES + 1
        ) * CoherenceProtocol.ACK_TIMEOUT_US
        assert elapsed > expected_waits
        # The memory leg is retransmitted until the loss window closes.
        assert elapsed >= 2_000

    def test_no_injection_no_retransmissions(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=True)
        assert cluster.stats.counter("retransmissions") == 0
        assert cluster.stats.counter("resets") == 0


class TestInvalidationModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            small_cluster(invalidation_mode="carrier-pigeon")

    def test_unicast_mode_counts_generated_packets(self):
        cluster = small_cluster(
            num_compute=3, invalidation_mode="unicast-cpu"
        )
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=False)
        touch(cluster, 2, pid, base, write=True)  # invalidates 2 sharers
        assert cluster.stats.counter("unicast_invalidations_generated") == 2

    def test_unicast_slower_than_multicast(self):
        def upgrade_latency(mode):
            cluster = small_cluster(num_compute=3, invalidation_mode=mode)
            pid, base = setup_proc(cluster)
            touch(cluster, 0, pid, base, write=False)
            touch(cluster, 1, pid, base, write=False)
            touch(cluster, 2, pid, base, write=True)
            return cluster.stats.mean_latency("fault:S->M")

        assert upgrade_latency("unicast-cpu") > upgrade_latency("multicast") + 10

    def test_multicast_mode_generates_no_cpu_packets(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=True)
        assert cluster.stats.counter("unicast_invalidations_generated") == 0


class TestSwitchMechanics:
    def test_every_fault_recirculates_once(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=False)
        assert cluster.mmu.pipeline.recirculations == 2

    def test_multicast_prunes_non_sharers(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 1, pid, base, write=True)
        mc = cluster.mmu.multicast
        assert mc.delivered == 1
        assert mc.pruned >= 1  # the requester's copy was pruned at egress

    def test_remote_access_counter(self, cluster):
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        touch(cluster, 0, pid, base, write=False)  # hit, no fault
        assert cluster.stats.counter("remote_accesses") == 1
