"""Switch fail-over keeps the replicated control plane (Section 4.4).

The backup switch takes over with the primary's translation, protection
and allocator state -- the very objects, since in this model the replica
always equals the live control plane -- and only the coherence directory
restarts, all-Invalid, in the backup's own SRAM.
"""

import pytest

from repro.core.vma import PermissionClass
from repro.sim.network import PAGE_SIZE
from repro.switchsim.packets import AccessType, PacketVerdict

from conftest import small_cluster


@pytest.fixture
def populated():
    cluster = small_cluster(num_compute=2, num_memory=2)
    ctl = cluster.controller
    task = ctl.sys_exec("app")
    bases = [ctl.sys_mmap(task.pid, 4 * PAGE_SIZE) for _ in range(3)]
    ro = ctl.sys_mmap(task.pid, PAGE_SIZE, PermissionClass.READ_ONLY)
    return cluster, task, bases, ro


def fail_over(cluster) -> None:
    """Crash the primary now and run until the backup serves."""
    cluster.run_process(cluster.enable_failover().crash_primary())
    assert cluster.stats.counter("failovers_completed") == 1


class TestRebuild:
    def test_translation_identical(self, populated):
        cluster, _task, bases, ro = populated
        space = cluster.mmu.address_space
        before = [space.translate(va) for va in bases + [ro]]
        fail_over(cluster)
        assert [space.translate(va) for va in bases + [ro]] == before

    def test_protection_identical(self, populated):
        cluster, task, bases, ro = populated
        fail_over(cluster)
        protection = cluster.mmu.protection
        for base in bases:
            assert (
                protection.check(task.pid, base, AccessType.WRITE)
                is PacketVerdict.ALLOW
            )
        assert (
            protection.check(task.pid, ro, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )
        assert (
            protection.check(9999, bases[0], AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_allocator_occupancy_replayed(self, populated):
        cluster, _task, _bases, _ro = populated
        allocator = cluster.mmu.allocator
        occupancy = allocator.allocated_per_blade()
        live = {bid: allocator.blade(bid).live_allocations() for bid in allocator.blade_ids}
        fail_over(cluster)
        assert allocator.allocated_per_blade() == occupancy
        assert {
            bid: allocator.blade(bid).live_allocations() for bid in allocator.blade_ids
        } == live

    def test_future_allocations_do_not_collide(self, populated):
        cluster, task, bases, ro = populated
        fail_over(cluster)
        ctl = cluster.controller
        fresh = ctl.sys_mmap(task.pid, PAGE_SIZE)
        new_vma, _blade = ctl.task(task.pid).vmas[fresh]
        for base in bases + [ro]:
            vma, _blade = ctl.task(task.pid).vmas[base]
            assert new_vma.end <= vma.base or vma.end <= new_vma.base

    def test_directory_starts_cold(self, populated):
        cluster, task, bases, _ro = populated
        writer, reader = cluster.compute_blades
        cluster.run_process(writer.store_bytes(task.pid, bases[0], b"warm"))
        assert len(cluster.mmu.directory) == 1
        fail_over(cluster)
        assert len(cluster.mmu.directory) == 0  # re-populated by faults
        # The quiesce flushed the dirty page, so memory serves it.
        data = cluster.run_process(reader.load_bytes(task.pid, bases[0], 4))
        assert data == b"warm"
        assert len(cluster.mmu.directory) == 1

    def test_rebuild_of_empty_control_plane(self):
        cluster = small_cluster()
        fail_over(cluster)
        assert len(cluster.mmu.protection) == 0
        assert cluster.mmu.address_space.num_blade_entries == 1
        assert cluster.stats.counter("failover_rules_installed") == 1


class TestTakeOver:
    def test_control_plane_objects_carry_over_everywhere(self, populated):
        cluster, _task, _bases, _ro = populated
        mmu = cluster.mmu
        space, protection, allocator = mmu.address_space, mmu.protection, mmu.allocator
        directory = mmu.directory
        tcams = (mmu.translation_tcam, mmu.protection_tcam)
        fail_over(cluster)
        holders = (mmu, mmu.coherence, mmu.controller, mmu.migration)
        for holder in holders:
            assert holder.address_space is space
        for holder in (mmu, mmu.coherence, mmu.controller):
            assert holder.protection is protection
        for holder in (mmu, mmu.controller, mmu.migration):
            assert holder.allocator is allocator
        for holder in (mmu, mmu.coherence, mmu.controller, mmu.splitter):
            assert holder.directory is directory
        assert mmu.translation_tcam is space.tcam is tcams[0]
        assert mmu.protection_tcam is protection.tcam is tcams[1]

    def test_directory_resets_into_fresh_sram(self, populated):
        cluster, task, bases, _ro = populated
        blade = cluster.compute_blades[0]
        for base in bases:
            cluster.run_process(blade.ensure_page(task.pid, base, True))
        mmu = cluster.mmu
        assert mmu.directory.split(mmu.directory.regions()[0]) is not None
        primary_sram = mmu.directory_sram
        assert primary_sram.peak_used == len(mmu.directory) == 4
        fail_over(cluster)
        assert mmu.directory_sram is not primary_sram
        assert mmu.directory_sram is mmu.directory.sram
        assert mmu.directory_sram.capacity == primary_sram.capacity
        assert mmu.directory_sram.peak_used == 0
        directory = mmu.directory
        assert len(directory) == 0 and directory.regions() == []
        assert directory.splits == directory.merges == directory.reclaims == 0
