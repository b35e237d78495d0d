"""Switch control-plane CPU model.

The Wedge switch carries a general-purpose CPU (Intel Broadwell, 8 GB RAM)
connected to the ASIC over PCIe.  It hosts MIND's controller: the syscall
TCP server, process/memory metadata, and the bounded-splitting logic that
periodically rewrites data-plane rules.  Rule installs/removals cross PCIe
and are much slower than data-plane packet handling, which is why MIND
keeps them off the data path (only metadata operations touch the CPU).

We model the CPU as a single-server queue with a fixed per-rule-update cost
so that control-plane overhead can be reported (the epoch-sizing argument
in Fig. 9 right rests on it).
"""

from __future__ import annotations

from typing import Generator

from ..sim.engine import Engine, Resource


class ControlCpu:
    """Single-threaded control processor with PCIe rule-update costs."""

    #: Cost of installing or removing one data-plane rule over PCIe (us).
    RULE_UPDATE_US = 20.0
    #: Cost of handling one intercepted syscall (parse + metadata + reply).
    SYSCALL_US = 10.0

    def __init__(self, engine: Engine):
        self.engine = engine
        self._cpu = Resource(engine, capacity=1, name="switch.control_cpu")
        self.rule_updates = 0
        self.syscalls_handled = 0
        self.busy_us = 0.0
        self.stalls = 0
        self.stall_us = 0.0
        #: modeled allocator work (the allocator-policy axis): op count and
        #: accumulated CPU microseconds.  Accounting-only -- trace-replay
        #: mmaps all happen at t=0 outside simulated time, so the charge
        #: must not occupy the single-server queue (scenarios that *do*
        #: serialize syscalls through the CPU use :meth:`occupy`).
        self.alloc_ops = 0
        self.alloc_us = 0.0

    def charge_alloc(self, cost_us: float) -> None:
        """Book one allocator operation's modeled CPU time."""
        self.alloc_ops += 1
        self.alloc_us += cost_us

    def occupy(self, cost_us: float) -> Generator:
        """Process generator: hold the CPU for an explicit duration.

        The public entry for scenarios that serialize modeled work (e.g.
        syscall + allocation cost in the churn benchmark) through the
        single-server queue so queueing delay emerges.
        """
        return self._occupy(cost_us)

    def _occupy(self, cost_us: float) -> Generator:
        yield self._cpu.acquire()
        try:
            yield cost_us
            self.busy_us += cost_us
        finally:
            self._cpu.release()

    def apply_rule_update(self) -> Generator:
        """Process generator: one PCIe rule install/remove."""
        self.rule_updates += 1
        return self._occupy(self.RULE_UPDATE_US)

    def handle_syscall(self) -> Generator:
        """Process generator: one intercepted syscall round at the CPU."""
        self.syscalls_handled += 1
        return self._occupy(self.SYSCALL_US)

    def stall(self, duration_us: float) -> Generator:
        """Process generator: an injected control-CPU stall.

        Occupies the single-server CPU for ``duration_us``, so queued rule
        updates and syscalls wait it out -- the observable cost of a wedged
        controller (GC pause, PCIe hiccup, livelocked daemon).
        """
        self.stalls += 1
        self.stall_us += duration_us
        return self._occupy(duration_us)

    def utilization(self) -> float:
        if self.engine.now <= 0:
            return 0.0
        return self.busy_us / self.engine.now
