"""Switch control plane: process and memory management (Sections 3.2, 6.3).

The general-purpose CPU on the switch hosts MIND's controller.  Compute
blades intercept process syscalls (``exec``/``exit``) and memory syscalls
(``brk``/``mmap``/``munmap``/``mprotect``) and forward them here; the
controller maintains Linux-like metadata (``task_struct``/``mm_struct``/
``vm_area_struct``), performs allocation with its global view (P2), and
answers with Linux-compatible return values and error codes so user
applications stay unmodified.

Thread placement is round-robin across compute blades (the paper does not
innovate on scheduling); threads of one process share a PID and therefore a
PDID, which is how they transparently share the address space.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..alloc import BladeAllocation, GlobalAllocator, OutOfMemoryError
from ..switchsim.control_cpu import ControlCpu
from ..switchsim.tcam import TcamFullError
from .addressing import AddressSpace
from .directory import RegionDirectory
from .protection import ProtectionTable
from .vma import PermissionClass, Vma


class SyscallError(OSError):
    """A syscall failed; ``errno`` carries the Linux error code."""

    def __init__(self, err: int, message: str):
        super().__init__(err, message)


@dataclass
class ThreadInfo:
    """One execution thread of a process, pinned to a compute blade."""

    tid: int
    blade_id: int


@dataclass
class TaskStruct:
    """Controller-side process representation."""

    pid: int
    name: str
    threads: List[ThreadInfo] = field(default_factory=list)
    #: vma base -> (Vma, memory blade id)
    vmas: Dict[int, tuple] = field(default_factory=dict)
    brk_base: Optional[int] = None
    brk_current: int = 0
    alive: bool = True


class SwitchController:
    """The control-plane brain: syscall handling + metadata management."""

    def __init__(
        self,
        control_cpu: ControlCpu,
        allocator: GlobalAllocator,
        address_space: AddressSpace,
        protection: ProtectionTable,
        directory: RegionDirectory,
        compute_blade_ids: Optional[List[int]] = None,
        drop_cached_range: Optional[Callable[[int, int], None]] = None,
        flush_cached_range: Optional[Callable[[int, int], None]] = None,
        stats=None,
    ):
        self.control_cpu = control_cpu
        self.allocator = allocator
        #: StatsCollector for modeled allocation latency (optional).
        self.stats = stats
        self.address_space = address_space
        self.protection = protection
        self.directory = directory
        self._compute_blade_ids = list(compute_blade_ids or [])
        self._drop_cached_range = drop_cached_range
        self._flush_cached_range = flush_cached_range
        self._revoke_domain_range = None
        self._migration_manager = None
        self._tasks: Dict[int, TaskStruct] = {}
        self._next_pid = 1000
        self._next_tid = 1
        self._rr_cursor = 0

    def _charge_alloc(self) -> None:
        """Charge the last allocator operation's modeled cost on the control
        CPU and record it as an ``alloc`` latency sample.  No-op when the
        allocator axis is off (``last_cost_us`` stays 0 and nothing is
        recorded), which keeps the default path bit-identical."""
        if not self.allocator.modeled:
            return
        cost = self.allocator.last_cost_us
        self.control_cpu.charge_alloc(cost)
        if self.stats is not None:
            self.stats.record_latency("alloc", cost)

    # -- cluster membership ---------------------------------------------------

    def add_compute_blade(self, blade_id: int) -> None:
        if blade_id not in self._compute_blade_ids:
            self._compute_blade_ids.append(blade_id)

    def set_drop_cached_range(self, fn: Callable[[int, int], None]) -> None:
        """Install the cluster's hook for dropping cached pages on munmap."""
        self._drop_cached_range = fn

    def set_flush_cached_range(self, fn: Callable[[int, int], None]) -> None:
        """Install the cluster's hook for flushing+dropping cached pages on
        permission changes (mprotect must not leave stale writable PTEs)."""
        self._flush_cached_range = fn

    def set_revoke_domain_range(self, fn) -> None:
        """Install the cluster's hook for tearing down one domain's PTEs
        across blades when its grant is revoked."""
        self._revoke_domain_range = fn

    def set_migration_manager(self, manager) -> None:
        """Attach the migration manager so munmap releases migrated
        ranges' outlier routes and shadow allocations."""
        self._migration_manager = manager

    # -- process management -----------------------------------------------------

    def sys_exec(self, name: str = "proc") -> TaskStruct:
        """Create a process; the PID doubles as its protection domain id."""
        self.control_cpu.syscalls_handled += 1
        pid = self._next_pid
        self._next_pid += 1
        task = TaskStruct(pid=pid, name=name)
        self._tasks[pid] = task
        return task

    def sys_exit(self, pid: int) -> None:
        """Tear down a process: free every vma and its protection entries."""
        task = self._task(pid)
        for base in list(task.vmas):
            self.sys_munmap(pid, base)
        task.alive = False
        task.threads.clear()
        del self._tasks[pid]
        self.control_cpu.syscalls_handled += 1

    def place_thread(self, pid: int) -> ThreadInfo:
        """Round-robin a new thread of ``pid`` onto a compute blade."""
        if not self._compute_blade_ids:
            raise SyscallError(errno.EAGAIN, "no compute blades registered")
        task = self._task(pid)
        blade_id = self._compute_blade_ids[self._rr_cursor % len(self._compute_blade_ids)]
        self._rr_cursor += 1
        thread = ThreadInfo(tid=self._next_tid, blade_id=blade_id)
        self._next_tid += 1
        task.threads.append(thread)
        return thread

    def task(self, pid: int) -> TaskStruct:
        return self._task(pid)

    def tasks(self) -> List[TaskStruct]:
        return list(self._tasks.values())

    def _task(self, pid: int) -> TaskStruct:
        task = self._tasks.get(pid)
        if task is None or not task.alive:
            raise SyscallError(errno.ESRCH, f"no such process: {pid}")
        return task

    # -- memory management ---------------------------------------------------------

    def sys_mmap(
        self,
        pid: int,
        length: int,
        perm: PermissionClass = PermissionClass.READ_WRITE,
        pdid: Optional[int] = None,
    ) -> int:
        """Allocate a vma; returns its base VA (like ``mmap(2)``).

        ``pdid`` defaults to the PID; capability-style callers may name a
        different protection domain (e.g. one per client session).  When
        the protection table cannot take the vma's rules, the placement is
        freed and ``ENOMEM`` raised.
        """
        task = self._task(pid)
        if length <= 0:
            raise SyscallError(errno.EINVAL, "mmap length must be positive")
        self.control_cpu.syscalls_handled += 1
        try:
            placement: BladeAllocation = self.allocator.allocate(length, owner=pid)
        except OutOfMemoryError as exc:
            self._charge_alloc()
            raise SyscallError(errno.ENOMEM, str(exc)) from exc
        self._charge_alloc()
        vma = Vma(placement.va_base, placement.length, pdid or pid, perm)
        try:
            self.protection.grant(vma.pdid, vma, perm)
        except TcamFullError as exc:
            self.allocator.free(placement.blade_id, placement.va_base)
            self._charge_alloc()
            raise SyscallError(errno.ENOMEM, str(exc)) from exc
        task.vmas[vma.base] = (vma, placement.blade_id)
        return vma.base

    def sys_munmap(self, pid: int, va_base: int) -> None:
        """Free a vma: revoke protection, drop directory entries, free space.

        Raises ``ENOMEM``, leaving the mapping intact, when the revoke
        splits a coalesced protection rule and the pieces do not fit.
        """
        task = self._task(pid)
        entry = task.vmas.get(va_base)
        if entry is None:
            raise SyscallError(errno.EINVAL, f"no vma at {va_base:#x}")
        vma, blade_id = entry
        self.control_cpu.syscalls_handled += 1
        try:
            self.protection.revoke(vma.pdid, vma.base)
        except TcamFullError as exc:
            raise SyscallError(errno.ENOMEM, str(exc)) from exc
        del task.vmas[va_base]
        self._drop_directory_range(vma.base, vma.length)
        if self._drop_cached_range is not None:
            self._drop_cached_range(vma.base, vma.length)
        if self._migration_manager is not None:
            # Releases the outlier route + destination shadow if migrated.
            self._migration_manager.release_migration(vma.base)
        try:
            self.allocator.free(blade_id, vma.base)
        except KeyError:
            # The vma's original home blade was retired after migration;
            # its physical range went away with the blade.
            pass
        else:
            self._charge_alloc()

    def sys_brk(self, pid: int, increment: int) -> int:
        """Grow the heap; modelled as an mmap-backed growable segment."""
        task = self._task(pid)
        if increment <= 0:
            raise SyscallError(errno.EINVAL, "brk shrinking not supported")
        base = self.sys_mmap(pid, increment)
        if task.brk_base is None:
            task.brk_base = base
        task.brk_current = base + increment
        return base

    def sys_mprotect(self, pid: int, va_base: int, perm: PermissionClass) -> None:
        """Change a vma's permission class; ``ENOMEM``, with the old class
        in place, when the recompiled protection rules do not fit."""
        task = self._task(pid)
        entry = task.vmas.get(va_base)
        if entry is None:
            raise SyscallError(errno.EINVAL, f"no vma at {va_base:#x}")
        vma, blade_id = entry
        self.control_cpu.syscalls_handled += 1
        new_vma = vma.with_perm(perm)
        try:
            self.protection.change(vma.pdid, new_vma, perm)
        except TcamFullError as exc:
            raise SyscallError(errno.ENOMEM, str(exc)) from exc
        task.vmas[va_base] = (new_vma, blade_id)
        # Cached copies must not retain stale (looser) permissions: flush
        # dirty pages and drop the range everywhere, then reset directory
        # state so the next access re-faults under the new class.
        if self._flush_cached_range is not None:
            self._flush_cached_range(vma.base, vma.length)
        self._drop_directory_range(vma.base, vma.length)

    def grant_domain(
        self, pid: int, va_base: int, pdid: int, perm: PermissionClass
    ) -> None:
        """Capability-style API: grant another protection domain access to
        one of ``pid``'s vmas (Section 4.2's per-session domains)."""
        task = self._task(pid)
        entry = task.vmas.get(va_base)
        if entry is None:
            raise SyscallError(errno.EINVAL, f"no vma at {va_base:#x}")
        vma, _blade = entry
        self.protection.grant(pdid, Vma(vma.base, vma.length, pdid, perm), perm)

    def revoke_domain(self, pid: int, va_base: int, pdid: int) -> None:
        task = self._task(pid)
        entry = task.vmas.get(va_base)
        self.protection.revoke(pdid, va_base)
        # Tear down the revoked domain's local PTEs so cached pages stop
        # honouring the old grant.
        if entry is not None and self._revoke_domain_range is not None:
            vma, _blade = entry
            self._revoke_domain_range(pdid, vma.base, vma.length)

    # -- helpers -----------------------------------------------------------------

    def _drop_directory_range(self, base: int, length: int) -> None:
        for region in list(self.directory.regions()):
            if region.base < base + length and base < region.end:
                self.directory.release(region)
