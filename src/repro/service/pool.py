"""An elastic pool of serving threads draining a shared request queue.

The pool is the service's data plane: admitted requests go into one FIFO
queue, and each *slot* (a simulated serving thread pinned to some compute
blade) loops popping a request, burning its CPU cost, then executing the
tenant's KVS operation through the MIND address space.  Capacity changes
online -- :meth:`ServingPool.add_slot` during scale-up (the new thread may
live on a freshly-placed blade), :meth:`ServingPool.retire_slot` during
scale-down -- without draining the queue or touching other slots, which is
exactly the elasticity the single-address-space design buys.

Idle slots park on a private event rather than poll, so an empty service
consumes no simulated time and the engine's determinism contract (FIFO
wakeups, no wall-clock) holds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List


class Request:
    """One admitted client request moving through the pool."""

    __slots__ = (
        "tenant", "client", "index", "op",
        "arrival_us", "enqueued_us", "attempts", "queue_wait_us", "done",
    )

    def __init__(self, tenant: int, client: int, index: int, op):
        self.tenant = tenant
        self.client = client
        self.index = index
        self.op = op
        self.arrival_us = 0.0
        self.enqueued_us = 0.0
        self.attempts = 0
        self.queue_wait_us = 0.0
        self.done: Any = None  # Event, set by submit()


class _Slot:
    """Bookkeeping for one serving thread."""

    __slots__ = ("thread", "index", "retired", "parked")

    def __init__(self, thread, index: int):
        self.thread = thread
        self.index = index
        self.retired = False
        self.parked: Any = None  # Event while idle, else None


class ServingPool:
    """FIFO request queue plus an elastic set of serving slots.

    ``execute(thread, request)`` is the per-request generator (typically a
    tenant-dispatching closure over :class:`~repro.workloads.elastic_kvs.
    KvsTenant`); ``cpu_us`` is burned before it runs, modelling request
    parsing and protocol handling on the serving blade.
    """

    def __init__(self, engine, stats, cpu_us: float, execute: Callable):
        self.engine = engine
        self.stats = stats
        self.cpu_us = cpu_us
        self.execute = execute
        self._queue: Deque[Request] = deque()
        self._slots: List[_Slot] = []
        self._idle: Deque[_Slot] = deque()
        self._next_index = 0

    # -- capacity ----------------------------------------------------------

    @property
    def active_slots(self) -> int:
        return sum(1 for s in self._slots if not s.retired)

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def add_slot(self, thread) -> None:
        """Start a serving loop on ``thread`` (usable mid-run)."""
        slot = _Slot(thread, self._next_index)
        self._next_index += 1
        self._slots.append(slot)
        self.engine.process(self._worker(slot), name=f"svc.slot{slot.index}")

    def retire_slot(self) -> bool:
        """Retire the most recently added live slot (LIFO, like scale-up).

        The slot finishes its current request, then exits; a parked slot
        exits immediately.  Returns False when no slot is retirable.
        """
        for slot in reversed(self._slots):
            if not slot.retired:
                slot.retired = True
                if slot.parked is not None:
                    self._idle.remove(slot)
                    event, slot.parked = slot.parked, None
                    event.succeed()
                return True
        return False

    # -- request flow ------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Enqueue an admitted request and wake an idle slot if any."""
        request.enqueued_us = self.engine.now
        request.done = self.engine.event()
        self._queue.append(request)
        if self._idle:
            slot = self._idle.popleft()
            event, slot.parked = slot.parked, None
            event.succeed()

    def _worker(self, slot: _Slot) -> Generator:
        while not slot.retired:
            if not self._queue:
                slot.parked = self.engine.event()
                self._idle.append(slot)
                yield slot.parked
                continue
            req = self._queue.popleft()
            req.queue_wait_us = self.engine.now - req.enqueued_us
            self.stats.record_latency(
                "svc:queue", req.queue_wait_us, t=self.engine.now
            )
            yield self.cpu_us
            yield from self.execute(slot.thread, req)
            req.done.succeed()

    def drain_idle(self) -> None:
        """Wake every parked slot so retired ones can exit (run teardown)."""
        while self._idle:
            slot = self._idle.popleft()
            event, slot.parked = slot.parked, None
            event.succeed()
