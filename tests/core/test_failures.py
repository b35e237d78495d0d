"""Tests for switch fail-over: control-plane capture and data-plane rebuild."""

import pytest

from repro.core.failures import capture_control_plane, rebuild_data_plane
from repro.core.vma import PermissionClass
from repro.sim.network import PAGE_SIZE
from repro.switchsim.packets import AccessType, PacketVerdict
from repro.switchsim.sram import RegisterArray
from repro.switchsim.tcam import Tcam

from conftest import small_cluster


@pytest.fixture
def populated():
    cluster = small_cluster(num_compute=2, num_memory=2)
    ctl = cluster.controller
    task = ctl.sys_exec("app")
    bases = [ctl.sys_mmap(task.pid, 4 * PAGE_SIZE) for _ in range(3)]
    ro = ctl.sys_mmap(task.pid, PAGE_SIZE, PermissionClass.READ_ONLY)
    return cluster, task, bases, ro


def rebuild(cluster):
    return rebuild_data_plane(
        capture_control_plane(cluster.controller),
        xlate_tcam=Tcam(1024, name="backup-xlate"),
        protection_tcam=Tcam(1024, name="backup-prot"),
        directory_sram=RegisterArray(256, name="backup-dir"),
    )


class TestReplication:
    def test_snapshot_captures_vmas(self, populated):
        cluster, task, bases, ro = populated
        snap = capture_control_plane(cluster.controller)
        assert len(snap.allocations) == 4
        assert {base for base, _length, _blade in snap.allocations} == set(bases) | {ro}

    def test_staleness_detection(self, populated):
        # A capture changes exactly when the tables a backup installs would:
        # placing a thread touches none of them, an mmap adds an allocation
        # and a protection grant.
        cluster, task, _bases, _ro = populated
        ctl = cluster.controller
        before = capture_control_plane(ctl)
        ctl.place_thread(task.pid)
        assert capture_control_plane(ctl) == before
        ctl.sys_mmap(task.pid, PAGE_SIZE)
        after = capture_control_plane(ctl)
        assert after != before
        assert len(after.allocations) == len(before.allocations) + 1
        assert len(after.grants) == len(before.grants) + 1


class TestRebuild:
    def test_translation_identical(self, populated):
        cluster, _task, bases, _ro = populated
        backup = rebuild(cluster)
        for base in bases:
            orig = cluster.mmu.address_space.translate(base)
            new = backup.address_space.translate(base)
            assert (orig.blade_id, orig.pa) == (new.blade_id, new.pa)

    def test_protection_identical(self, populated):
        cluster, task, bases, ro = populated
        backup = rebuild(cluster)
        for base in bases:
            assert (
                backup.protection.check(task.pid, base, AccessType.WRITE)
                is PacketVerdict.ALLOW
            )
        assert (
            backup.protection.check(task.pid, ro, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )
        assert (
            backup.protection.check(9999, bases[0], AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_allocator_occupancy_replayed(self, populated):
        cluster, _task, _bases, _ro = populated
        backup = rebuild(cluster)
        assert (
            backup.allocator.allocated_per_blade()
            == cluster.mmu.allocator.allocated_per_blade()
        )

    def test_future_allocations_do_not_collide(self, populated):
        cluster, task, bases, _ro = populated
        backup = rebuild(cluster)
        placement = backup.allocator.allocate(PAGE_SIZE)
        for base in bases:
            vma, _blade = cluster.controller.task(task.pid).vmas[base]
            assert (
                placement.va_base + placement.length <= vma.base
                or vma.end <= placement.va_base
            )

    def test_directory_starts_cold(self, populated):
        cluster, task, bases, _ro = populated
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(task.pid, bases[0], True))
        assert len(cluster.mmu.directory) == 1
        backup = rebuild(cluster)
        assert len(backup.directory) == 0  # re-populated by faults

    def test_rebuild_of_empty_control_plane(self):
        cluster = small_cluster()
        backup = rebuild(cluster)
        assert len(backup.protection) == 0
        assert backup.address_space.num_blade_entries == 1
