"""Public API: transparent virtual memory over a disaggregated rack.

This is the interface a downstream user programs against.  It mirrors what
MIND gives unmodified applications -- processes, threads placed across
compute blades, ``mmap``/``munmap``/``mprotect``, and plain loads/stores --
while hiding the event engine:

    >>> from repro.api import MindSystem
    >>> system = MindSystem(num_compute_blades=2, num_memory_blades=2)
    >>> proc = system.spawn_process("app")
    >>> buf = proc.mmap(1 << 20)
    >>> t0, t1 = proc.spawn_thread(), proc.spawn_thread()  # two blades
    >>> t0.write(buf, b"hello")
    >>> t1.read(buf, 5)      # coherent across blades
    b'hello'

Two usage styles:

- **Blocking** (``read``/``write``): each call advances the simulation
  until that one operation completes.  Simple, for single-logical-thread
  programs and examples.
- **Process-style** (``load_gen``/``store_gen``/``run_concurrently``): for
  simulating genuinely concurrent threads, write generator functions and
  let the engine interleave them.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from .blades.compute import ComputeBlade, SegmentationFault
from .cluster import ClusterConfig, MindCluster
from .core.controller import TaskStruct, ThreadInfo
from .core.mmu import MindConfig
from .core.vma import PermissionClass
from .sim.network import NetworkConfig, PAGE_SIZE

__all__ = [
    "MindSystem",
    "MindProcess",
    "MindThread",
    "PermissionClass",
    "SegmentationFault",
    "PAGE_SIZE",
]


class MindThread:
    """A thread of a MIND process, pinned to one compute blade."""

    def __init__(self, system: "MindSystem", process: "MindProcess", info: ThreadInfo):
        self._system = system
        self.process = process
        self.info = info
        self.blade: ComputeBlade = system.cluster.compute_blade(info.blade_id)

    @property
    def tid(self) -> int:
        return self.info.tid

    @property
    def blade_id(self) -> int:
        return self.info.blade_id

    # -- blocking style ------------------------------------------------------

    def read(self, va: int, size: int) -> bytes:
        """Load ``size`` bytes at ``va``, advancing the simulation."""
        return self._system.cluster.run_process(
            self.blade.load_bytes(self.process.pid, va, size)
        )

    def write(self, va: int, data: bytes) -> None:
        """Store ``data`` at ``va``, advancing the simulation."""
        self._system.cluster.run_process(
            self.blade.store_bytes(self.process.pid, va, data)
        )

    def touch(self, va: int, write: bool = False) -> None:
        """Fault a single page in (useful for warming/benchmarking)."""
        self._system.cluster.run_process(
            self.blade.ensure_page(self.process.pid, va, write)
        )

    # -- process style --------------------------------------------------------

    def load_gen(self, va: int, size: int) -> Generator:
        """Generator form of :meth:`read` for concurrent simulation."""
        return self.blade.load_bytes(self.process.pid, va, size)

    def store_gen(self, va: int, data: bytes) -> Generator:
        """Generator form of :meth:`write` for concurrent simulation."""
        return self.blade.store_bytes(self.process.pid, va, data)

    def run_trace_gen(self, accesses, **kwargs) -> Generator:
        """Generator replaying ``(va, is_write)`` accesses on this thread."""
        return self.blade.run_thread(self.process.pid, accesses, **kwargs)


class MindProcess:
    """A process with a single global-address-space view across blades."""

    def __init__(self, system: "MindSystem", task: TaskStruct):
        self._system = system
        self._task = task
        self.threads: List[MindThread] = []

    @property
    def pid(self) -> int:
        return self._task.pid

    @property
    def name(self) -> str:
        return self._task.name

    # -- memory syscalls ---------------------------------------------------------

    def mmap(
        self, length: int, perm: PermissionClass = PermissionClass.READ_WRITE
    ) -> int:
        """Allocate a vma; returns its base virtual address."""
        return self._system.controller.sys_mmap(self.pid, length, perm)

    def munmap(self, va_base: int) -> None:
        self._system.controller.sys_munmap(self.pid, va_base)

    def brk(self, increment: int) -> int:
        return self._system.controller.sys_brk(self.pid, increment)

    def mprotect(self, va_base: int, perm: PermissionClass) -> None:
        self._system.controller.sys_mprotect(self.pid, va_base, perm)

    def grant_domain(self, va_base: int, pdid: int, perm: PermissionClass) -> None:
        """Capability-style: let another protection domain access a vma."""
        self._system.controller.grant_domain(self.pid, va_base, pdid, perm)

    def revoke_domain(self, va_base: int, pdid: int) -> None:
        self._system.controller.revoke_domain(self.pid, va_base, pdid)

    # -- threads ----------------------------------------------------------------

    def spawn_thread(self) -> MindThread:
        """Place a new thread (round-robin across compute blades)."""
        info = self._system.controller.place_thread(self.pid)
        thread = MindThread(self._system, self, info)
        self.threads.append(thread)
        return thread

    def exit(self) -> None:
        self._system.controller.sys_exit(self.pid)
        self.threads.clear()


class MindSystem:
    """A MIND rack: the top-level object users construct."""

    def __init__(
        self,
        num_compute_blades: int = 2,
        num_memory_blades: int = 1,
        cache_capacity_pages: Optional[int] = None,
        mind_config: Optional[MindConfig] = None,
        network_config: Optional[NetworkConfig] = None,
        store_data: bool = True,
        trace: bool = False,
        trace_capacity: int = 1 << 16,
        telemetry: bool = False,
    ):
        config = ClusterConfig(
            num_compute_blades=num_compute_blades,
            num_memory_blades=num_memory_blades,
            store_data=store_data,
            trace=trace,
            trace_capacity=trace_capacity,
            telemetry=telemetry,
        )
        if cache_capacity_pages is not None:
            config.cache_capacity_pages = cache_capacity_pages
        if mind_config is not None:
            config.mind = mind_config
        if network_config is not None:
            config.network = network_config
        self.cluster = MindCluster(config)

    @property
    def controller(self):
        return self.cluster.controller

    @property
    def stats(self):
        return self.cluster.stats

    @property
    def tracer(self):
        """The cluster's event tracer (records only when ``trace=True``)."""
        return self.cluster.tracer

    def capture_telemetry(self) -> None:
        """Snapshot switch-resource peaks and queueing waits into stats."""
        self.cluster.capture_telemetry()

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds."""
        return self.cluster.engine.now

    def spawn_process(self, name: str = "proc") -> MindProcess:
        task = self.controller.sys_exec(name)
        return MindProcess(self, task)

    def run_concurrently(self, gens: List[Generator]) -> List:
        """Run several thread generators concurrently; returns their values."""
        return self.cluster.run_all(gens)

    # -- fault injection ---------------------------------------------------------

    def enable_failover(self, config=None):
        """Arm the switch fail-over path (control-plane replication plus a
        standby backup switch).  Returns the orchestrator so callers can
        schedule crashes (``crash_at``) or inspect outage windows."""
        return self.cluster.enable_failover(config)

    def inject_faults(self, plan):
        """Arm a :class:`repro.faults.FaultPlan` on the running rack."""
        return self.cluster.inject_faults(plan)
