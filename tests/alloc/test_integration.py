"""The allocator axis through the full stack: cluster, fail-over, shim."""

import warnings

import pytest

from repro.cluster import ClusterConfig, MindCluster
from repro.core.failures import capture_control_plane, rebuild_data_plane
from repro.core.mmu import MindConfig
from repro.sim.network import PAGE_SIZE
from repro.switchsim.sram import RegisterArray
from repro.switchsim.tcam import Tcam


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


class TestFailoverReplay:
    @pytest.mark.parametrize("policy", [None, "slab", "buddy", "arena"])
    def test_rebuilt_allocator_matches_policy_and_occupancy(self, policy):
        cluster = make_cluster(allocator=policy)
        ctl = cluster.controller
        task = ctl.sys_exec("t")
        bases = [
            ctl.sys_mmap(task.pid, (i + 1) * PAGE_SIZE) for i in range(6)
        ]
        ctl.sys_munmap(task.pid, bases[2])
        plane = rebuild_data_plane(
            capture_control_plane(ctl),
            xlate_tcam=Tcam(1024, name="backup-xlate"),
            protection_tcam=Tcam(1024, name="backup-prot"),
            directory_sram=RegisterArray(256, name="backup-dir"),
        )
        rebuilt = plane.allocator
        original = cluster.mmu.allocator
        assert rebuilt.policy_name == original.policy_name
        assert rebuilt.modeled == original.modeled
        assert rebuilt.allocated_per_blade() == original.allocated_per_blade()
        for bid in original.blade_ids:
            assert (
                rebuilt.blade(bid).live_allocations()
                == original.blade(bid).live_allocations()
            )
        # Where the free structure is a pure function of the live set,
        # placement stays identical after adoption: the next allocation
        # lands on the same blade at the same base.  (Arena placement
        # depends on per-owner heap state, which a snapshot deliberately
        # does not replicate -- the replay books into the shared arena.)
        if policy != "arena":
            p1 = original.allocate(PAGE_SIZE)
            p2 = rebuilt.allocate(PAGE_SIZE)
            assert (p1.blade_id, p1.va_base) == (p2.blade_id, p2.va_base)


class TestCorePackageReexport:
    def test_core_package_reexport_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.core import GlobalAllocator  # noqa: F401
