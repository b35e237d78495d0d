"""InvalidationEngine unit tests: builders, transport retries, reset, and
the unicast-cpu ablation's serialization cost."""

from repro.core.directory import CoherenceState

from conftest import arm_loss, lose_first_attempt, small_cluster

I, S, M = CoherenceState.INVALID, CoherenceState.SHARED, CoherenceState.MODIFIED


def setup_proc(cluster, length=1 << 16):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


def touch(cluster, blade_idx, pid, va, write):
    blade = cluster.compute_blades[blade_idx]
    return cluster.run_process(blade.ensure_page(pid, va, write))


class TestBuilders:
    def test_make_inval_aligns_target_page(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        region = cluster.mmu.directory.find(base)

        class Req:
            src_port = 5
            va = base + 123  # unaligned offset into the page

        inval = cluster.mmu.coherence.invalidation.make_inval(
            region, Req, [1, 2], downgrade=True
        )
        assert inval.region_base == region.base
        assert inval.sharers == frozenset({1, 2})
        assert inval.target_va == base  # aligned down to the page
        assert inval.downgrade_to_shared

    def test_make_eviction_inval_marks_collateral(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        region = cluster.mmu.directory.find(base)
        inval = cluster.mmu.coherence.invalidation.make_eviction_inval(region, [1])
        assert inval.requester_port == -1
        assert inval.target_va == -1  # every page is collateral


class TestRetryAndReset:
    """Blade 0 shares the page; blade 1's write must invalidate it across
    a lossy compute0 link."""

    @staticmethod
    def shared_page():
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        return cluster, pid, base

    def test_dropped_invalidation_retried_to_completion(self):
        cluster, pid, base = self.shared_page()
        lose_first_attempt(cluster, "compute0", "from_switch")
        touch(cluster, 1, pid, base, write=True)
        assert cluster.network.port("compute0").from_switch.packets_dropped == 1
        assert cluster.stats.counter("retransmissions") == 1
        # Despite the loss, the write completed with a coherent directory.
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert region.owner == cluster.compute_blades[1].port.port_id

    def test_dropped_acks_retried_idempotently(self):
        cluster, pid, base = self.shared_page()
        lose_first_attempt(cluster, "compute0", "to_switch")
        touch(cluster, 1, pid, base, write=True)
        assert cluster.network.port("compute0").to_switch.packets_dropped == 1
        assert cluster.stats.counter("retransmissions") == 1
        region = cluster.mmu.directory.find(base)
        assert region.state is M

    def test_persistent_loss_triggers_reset(self):
        cluster, pid, base = self.shared_page()
        arm_loss(cluster, "compute0", 0.99, direction="from_switch", duration_us=5_000)
        touch(cluster, 1, pid, base, write=True)
        assert cluster.stats.counter("resets") >= 1


class TestUnicastAblation:
    def test_unicast_serializes_on_switch_cpu(self):
        mc = small_cluster(num_compute=3)
        uc = small_cluster(num_compute=3, invalidation_mode="unicast-cpu")
        for cluster in (mc, uc):
            pid, base = setup_proc(cluster)
            touch(cluster, 0, pid, base, write=False)
            touch(cluster, 1, pid, base, write=False)
            touch(cluster, 2, pid, base, write=True)
        assert uc.stats.counter("unicast_invalidations_generated") == 2
        assert mc.stats.counter("unicast_invalidations_generated") == 0
        # Per-packet CPU generation is what makes software fan-out slow.
        assert uc.mmu.control_cpu.busy_us > mc.mmu.control_cpu.busy_us
