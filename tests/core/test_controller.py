"""Unit tests for the switch control plane (syscalls, processes)."""

import errno

import pytest

from repro.core.controller import SyscallError
from repro.core.vma import PermissionClass
from repro.sim.network import PAGE_SIZE
from repro.switchsim.packets import AccessType, PacketVerdict

from conftest import small_cluster


@pytest.fixture
def ctl(cluster):
    return cluster.controller


class TestProcessManagement:
    def test_exec_assigns_unique_pids(self, ctl):
        a, b = ctl.sys_exec("a"), ctl.sys_exec("b")
        assert a.pid != b.pid

    def test_exit_removes_task(self, ctl):
        task = ctl.sys_exec("a")
        ctl.sys_exit(task.pid)
        with pytest.raises(SyscallError) as exc:
            ctl.task(task.pid)
        assert exc.value.errno == errno.ESRCH

    def test_exit_frees_vmas_and_protection(self, cluster, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        ctl.sys_exit(task.pid)
        assert (
            cluster.mmu.protection.check(task.pid, base, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )
        assert cluster.mmu.allocator.allocated_per_blade()[0] == 0

    def test_round_robin_thread_placement(self, ctl):
        task = ctl.sys_exec("a")
        blades = [ctl.place_thread(task.pid).blade_id for _ in range(4)]
        assert blades == [0, 1, 0, 1]

    def test_threads_share_pid(self, ctl):
        task = ctl.sys_exec("a")
        t1, t2 = ctl.place_thread(task.pid), ctl.place_thread(task.pid)
        assert t1.tid != t2.tid
        assert len(ctl.task(task.pid).threads) == 2

    def test_unknown_pid_rejected(self, ctl):
        with pytest.raises(SyscallError):
            ctl.place_thread(99999)


class TestMemorySyscalls:
    def test_mmap_returns_page_aligned_va(self, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, 100)
        assert base % PAGE_SIZE == 0

    def test_mmap_installs_protection(self, cluster, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        assert (
            cluster.mmu.protection.check(task.pid, base, AccessType.WRITE)
            is PacketVerdict.ALLOW
        )

    def test_mmap_invalid_length(self, ctl):
        task = ctl.sys_exec("a")
        with pytest.raises(SyscallError) as exc:
            ctl.sys_mmap(task.pid, 0)
        assert exc.value.errno == errno.EINVAL

    def test_mmap_enomem(self, ctl):
        task = ctl.sys_exec("a")
        with pytest.raises(SyscallError) as exc:
            ctl.sys_mmap(task.pid, 1 << 40)  # bigger than the test blade
        assert exc.value.errno == errno.ENOMEM

    def test_mmaps_do_not_overlap(self, ctl):
        task = ctl.sys_exec("a")
        spans = []
        for _ in range(10):
            base = ctl.sys_mmap(task.pid, 3 * PAGE_SIZE)
            vma, _blade = ctl.task(task.pid).vmas[base]
            for other_base, other_end in spans:
                assert vma.end <= other_base or other_end <= vma.base
            spans.append((vma.base, vma.end))

    def test_isolation_between_processes(self, cluster, ctl):
        """Two processes in one global VA space: allocations disjoint and
        permissions domain-scoped (Section 4.1 'Isolation')."""
        a, b = ctl.sys_exec("a"), ctl.sys_exec("b")
        base_a = ctl.sys_mmap(a.pid, PAGE_SIZE)
        base_b = ctl.sys_mmap(b.pid, PAGE_SIZE)
        assert base_a != base_b
        prot = cluster.mmu.protection
        assert prot.check(a.pid, base_b, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY
        assert prot.check(b.pid, base_a, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY

    def test_munmap_frees_everything(self, cluster, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        ctl.sys_munmap(task.pid, base)
        assert (
            cluster.mmu.protection.check(task.pid, base, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )
        assert base not in ctl.task(task.pid).vmas

    def test_munmap_drops_directory_entries(self, cluster, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(task.pid, base, True))
        assert cluster.mmu.directory.find(base) is not None
        ctl.sys_munmap(task.pid, base)
        assert cluster.mmu.directory.find(base) is None

    def test_munmap_drops_cached_pages(self, cluster, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(task.pid, base, True))
        ctl.sys_munmap(task.pid, base)
        assert blade.cache.peek(base) is None
        assert base not in blade.ptes

    def test_munmap_unknown_vma(self, ctl):
        task = ctl.sys_exec("a")
        with pytest.raises(SyscallError) as exc:
            ctl.sys_munmap(task.pid, 0xDEAD000)
        assert exc.value.errno == errno.EINVAL

    def test_brk_grows_heap(self, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_brk(task.pid, 8 * PAGE_SIZE)
        assert ctl.task(task.pid).brk_base == base
        assert ctl.task(task.pid).brk_current == base + 8 * PAGE_SIZE

    def test_brk_shrink_unsupported(self, ctl):
        task = ctl.sys_exec("a")
        with pytest.raises(SyscallError):
            ctl.sys_brk(task.pid, -1)

    def test_mprotect_changes_class(self, cluster, ctl):
        task = ctl.sys_exec("a")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        ctl.sys_mprotect(task.pid, base, PermissionClass.READ_ONLY)
        prot = cluster.mmu.protection
        assert prot.check(task.pid, base, AccessType.READ) is PacketVerdict.ALLOW
        assert (
            prot.check(task.pid, base, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )


class TestProtectionDomains:
    def test_grant_domain_shares_vma(self, cluster, ctl):
        task = ctl.sys_exec("server")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        session_pdid = 777
        ctl.grant_domain(task.pid, base, session_pdid, PermissionClass.READ_ONLY)
        prot = cluster.mmu.protection
        assert prot.check(session_pdid, base, AccessType.READ) is PacketVerdict.ALLOW
        assert (
            prot.check(session_pdid, base, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )

    def test_revoke_domain(self, cluster, ctl):
        task = ctl.sys_exec("server")
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        ctl.grant_domain(task.pid, base, 777, PermissionClass.READ_ONLY)
        ctl.revoke_domain(task.pid, base, 777)
        assert (
            cluster.mmu.protection.check(777, base, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_domains_isolated_per_session(self, cluster, ctl):
        """Section 4.2's ssh-server example: one domain per session."""
        task = ctl.sys_exec("server")
        s1 = ctl.sys_mmap(task.pid, PAGE_SIZE)
        s2 = ctl.sys_mmap(task.pid, PAGE_SIZE)
        ctl.grant_domain(task.pid, s1, 100, PermissionClass.READ_WRITE)
        ctl.grant_domain(task.pid, s2, 200, PermissionClass.READ_WRITE)
        prot = cluster.mmu.protection
        assert prot.check(100, s2, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY
        assert prot.check(200, s1, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY


class TestFullProtectionTable:
    """Syscalls at a full protection table answer ``ENOMEM`` and leave
    every piece of state as it was."""

    @pytest.fixture
    def full(self):
        # A full 4-rule protection table.  ``a`` maps four adjacent vmas
        # (one coalesced rule); ``b``, ``c`` and ``d`` one vma each.
        cluster = small_cluster(match_action_capacity=8, protection_share=0.5)
        ctl = cluster.controller
        a, b, c, d = (ctl.sys_exec(name) for name in "abcd")
        bases = [ctl.sys_mmap(a.pid, 3 * PAGE_SIZE) for _ in range(4)]
        for task in (b, c, d):
            ctl.sys_mmap(task.pid, 3 * PAGE_SIZE)
        assert len(cluster.mmu.protection) == 4
        return cluster, a, d, bases

    def test_refused_mmap_frees_its_placement(self, full):
        cluster, _a, _d, _bases = full
        ctl = cluster.controller
        task = ctl.sys_exec("e")
        allocated = cluster.mmu.allocator.allocated_per_blade()
        for _attempt in range(2):
            with pytest.raises(SyscallError) as exc:
                ctl.sys_mmap(task.pid, 3 * PAGE_SIZE)
            assert exc.value.errno == errno.ENOMEM
            assert cluster.mmu.allocator.allocated_per_blade() == allocated
            assert ctl.task(task.pid).vmas == {}

    def test_refused_munmap_and_mprotect_keep_the_mapping(self, full):
        cluster, a, d, bases = full
        ctl = cluster.controller
        vmas = dict(ctl.task(a.pid).vmas)
        allocated = cluster.mmu.allocator.allocated_per_blade()
        # Either would split a's coalesced rule into more than fit.
        with pytest.raises(SyscallError) as exc:
            ctl.sys_munmap(a.pid, bases[1])
        assert exc.value.errno == errno.ENOMEM
        with pytest.raises(SyscallError) as exc:
            ctl.sys_mprotect(a.pid, bases[1], PermissionClass.READ_ONLY)
        assert exc.value.errno == errno.ENOMEM
        assert ctl.task(a.pid).vmas == vmas
        assert cluster.mmu.allocator.allocated_per_blade() == allocated
        assert (
            cluster.mmu.protection.check(a.pid, bases[1], AccessType.WRITE)
            is PacketVerdict.ALLOW
        )
        # Once another domain's rule is gone, the split fits.
        ctl.sys_exit(d.pid)
        ctl.sys_munmap(a.pid, bases[1])
        assert bases[1] not in ctl.task(a.pid).vmas
        assert len(cluster.mmu.protection) == 4
