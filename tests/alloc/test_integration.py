"""The allocator axis through the full stack: cluster, fail-over, shim."""

import warnings

import pytest

from repro.alloc import POLICIES
from repro.cluster import ClusterConfig, MindCluster
from repro.core.mmu import MindConfig
from repro.faults import FaultPlan
from repro.sim.network import PAGE_SIZE


def make_cluster(allocator=None):
    return MindCluster(
        ClusterConfig(
            num_compute_blades=2,
            num_memory_blades=2,
            cache_capacity_pages=64,
            mind=MindConfig(
                directory_capacity=256,
                memory_blade_capacity=1 << 24,
                enable_bounded_splitting=False,
                allocator=allocator,
            ),
        )
    )


class TestAxisGating:
    def test_default_is_unmodeled_first_fit(self):
        cluster = make_cluster()
        mmu = cluster.mmu
        assert mmu.allocator.policy_name == "first-fit"
        assert not mmu.allocator.modeled
        assert mmu.alloc_metadata_sram is None
        task = cluster.controller.sys_exec("t")
        cluster.controller.sys_mmap(task.pid, PAGE_SIZE)
        cluster.capture_telemetry()
        # No alloc metrics leak into the default namespace.
        assert not any(k.startswith("alloc") for k in cluster.stats.gauges)
        assert not any(k.startswith("alloc") for k in cluster.stats.counters)
        assert "alloc" not in cluster.stats.snapshot()
        assert mmu.control_cpu.alloc_ops == 0

    @pytest.mark.parametrize("policy", ["first-fit", "slab", "arena"])
    def test_axis_activates_cost_and_telemetry(self, policy):
        cluster = make_cluster(allocator=policy)
        mmu = cluster.mmu
        assert mmu.allocator.policy_name == policy
        assert mmu.allocator.modeled
        assert mmu.alloc_metadata_sram is not None
        ctl = cluster.controller
        task = ctl.sys_exec("t")
        bases = [ctl.sys_mmap(task.pid, 3 * PAGE_SIZE) for _ in range(4)]
        ctl.sys_munmap(task.pid, bases[0])
        cluster.capture_telemetry()
        stats = cluster.stats
        assert stats.counters["alloc_ops"] == 5  # 4 mmaps + 1 munmap
        assert stats.gauges["alloc:cpu_us"] > 0
        assert stats.gauges["alloc:metadata_bytes"] > 0
        assert "alloc" in stats.snapshot()
        assert mmu.alloc_metadata_sram.peak_used > 0


def control_plane_sequence(policy, crash):
    """Two owners map and unmap; then, after an optional switch crash at
    10 us, map three more vmas.  Returns those vmas' bases and the
    allocator's accounting."""
    cluster = make_cluster(allocator=policy)
    ctl = cluster.controller
    a, b = ctl.sys_exec("a"), ctl.sys_exec("b")
    placed = []
    for i in range(11):
        # a asks for 100 bytes short of a page multiple, b for whole pages.
        owner, short = (a, 100) if i % 2 == 0 else (b, 0)
        placed.append((owner.pid, ctl.sys_mmap(owner.pid, (i % 3 + 1) * PAGE_SIZE - short)))
    for pid, base in (placed[2], placed[5]):
        ctl.sys_munmap(pid, base)
    if crash:
        cluster.inject_faults(FaultPlan(seed=1).switch_crash(at_us=10.0))
        cluster.run()
        assert cluster.stats.counter("failovers_completed") == 1
    after = [ctl.sys_mmap(owner.pid, 2 * PAGE_SIZE) for owner in (a, b, a)]
    return after, cluster.mmu.allocator.raw_telemetry()


class TestFailoverKeepsAllocator:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_crash_changes_no_placement_or_accounting(self, policy):
        # The backup serves from the replicated allocator itself: per-owner
        # arenas, requested bytes and step counts all carry over.
        assert control_plane_sequence(policy, crash=True) == control_plane_sequence(
            policy, crash=False
        )


class TestCorePackageReexport:
    def test_core_package_reexport_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.core import GlobalAllocator  # noqa: F401
