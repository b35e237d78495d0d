"""Deterministic discrete-event simulation engine.

This is the substrate on which the entire MIND rack model runs.  It provides
a minimal but complete process-based discrete-event kernel:

- :class:`Engine` -- the event loop with a simulated clock (microseconds).
- :class:`Event` -- one-shot events that processes can wait on.
- :class:`Process` -- a generator-based cooperative process.  Yield a number
  to sleep for that many microseconds, an :class:`Event` to wait for it, or
  another :class:`Process` to join it.
- :class:`AllOf` -- barrier over several events (e.g. invalidation ACKs).
- :class:`Resource` -- a FIFO multi-server queue used to model queueing at
  blades, NICs, and the switch pipeline.

Determinism: ties in the event queue are broken by insertion order, and the
engine never consults wall-clock time, so a run is a pure function of its
inputs and seeds.

Fast paths (all order-preserving -- see DESIGN.md "kernel performance
model" for the argument):

- Future-time wake-ups live in one binary heap keyed by ``(time, seq)``.
  The earliest pending timer's key is mirrored in ``_due_head`` /
  ``_due_seq`` so every fast-path guard costs one float compare.
- Zero-delay schedules (event callbacks, process starts) go to a FIFO
  *ready deque* instead of the heap.  The run loop merges the deque and
  the heap by the global ``(time, insertion seq)`` key, so execution order
  is exactly the order a single queue would have produced, while the
  dominant ``succeed()``-at-now traffic never pays any queue discipline.
- A process whose wait would end in the globally next event (ready deque
  empty, every pending timer strictly later) continues in place instead
  of taking a round-trip through the queue: a positive delay advances
  the clock (*inline clock advance*), and an event that has already fired
  resumes it with the event's value (*inline continuation*) -- which is
  how an uncontended ``Resource.acquire()`` grant costs no event.
  Neither carries a process past ``run(until=...)``'s limit, nor on once
  the event ``run_until_complete`` awaits has fired.  ``Engine.subtask``
  applies the same "nothing else is due now" guard to a spawn-and-join
  child.

Observation (:meth:`Engine.observe`) schedules nothing: the observer runs
from the clock-advance points themselves, so an observed run dispatches
exactly the events of an unobserved one.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..obs.tracer import NULL_TRACER

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation kernel."""


class Event:
    """A one-shot event that carries a value once it succeeds.

    Processes wait on an event by ``yield``-ing it.  Multiple processes may
    wait on the same event; all are resumed (in wait order) when it fires.
    """

    __slots__ = ("engine", "_callbacks", "triggered", "value")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        # The callback list materialises on first waiter: most events in a
        # run (uncontended grants, short-lived completions) never get one.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = None
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, resuming all waiters at the current sim time."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = None
            engine = self.engine
            now = engine.now
            append = engine._ready.append
            for cb in callbacks:
                engine._counter += 1
                append((now, engine._counter, cb, (self,)))
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.engine._schedule_now(cb, (self,))
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)


class AllOf(Event):
    """An event that fires once all constituent events have fired.

    The value is the list of constituent values, in constituent order.  An
    empty constituent list fires immediately (useful for "wait for all ACKs"
    when there happen to be zero sharers).
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
        else:
            for ev in self._events:
                ev.add_callback(self._child_fired)

    def _child_fired(self, _ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([ev.value for ev in self._events])


class Process(Event):
    """A cooperative process driven by a generator.

    The process itself is an :class:`Event` that fires (with the generator's
    return value) when the generator finishes, so processes can be joined by
    yielding them.
    """

    __slots__ = ("_gen", "_name", "_seq", "_t_start")

    def __init__(self, engine: "Engine", gen: Generator, name: Optional[str] = None):
        super().__init__(engine)
        self._gen = gen
        self._name = name
        self._seq = engine._processes_started
        # Cheap unconditional snapshot: the tracer is resolved at completion
        # time, so processes started before a cluster installs its tracer
        # still emit completion spans.
        self._t_start = engine.now
        engine._schedule_now(self._resume, (None,))

    @property
    def name(self) -> str:
        return self._name or f"proc-{self._seq}"

    def _resume(self, _wake: Optional[Event]) -> None:
        engine = self.engine
        send = self._gen.send
        ready = engine._ready
        limit = engine._until
        stop = engine._stop
        value = None if _wake is None else _wake.value
        while True:
            try:
                target = send(value)
            except StopIteration as finished:
                tracer = engine.tracer
                if tracer.enabled:
                    tracer.complete(
                        self._t_start,
                        engine.now - self._t_start,
                        "engine",
                        self.name,
                        track=tracer.track("processes"),
                    )
                self.succeed(finished.value)
                return
            # The exact-type check dodges isinstance's subclass walk for the
            # overwhelmingly common plain-float delay; events and the rare
            # int/numpy delays take the isinstance fallbacks below.
            if type(target) is not float:
                if isinstance(target, Event):
                    if (
                        target.triggered
                        and not ready
                        and engine._due_head > engine.now
                        and not stop.triggered
                    ):
                        # Inline continuation: the event has fired, so the
                        # resume would land on the empty ready deque with
                        # every timer strictly later -- the next event run,
                        # at this instant, with this value.
                        engine.inline_continuations += 1
                        value = target.value
                        continue
                    target.add_callback(self._resume)
                    return
                if not isinstance(target, (int, float)):
                    raise SimulationError(
                        f"process yielded unsupported value: {target!r}"
                    )
                target = float(target)
            if target > 0.0:
                wake = engine.now + target
                if (
                    not ready
                    and engine._due_head > wake
                    and wake <= limit
                    and not stop.triggered
                ):
                    # Inline clock advance: the wake-up at ``wake`` would be
                    # the globally next event (the ready deque is empty and
                    # every pending timer is strictly later), so advancing
                    # the clock and continuing here is unobservable -- the
                    # event set and all timestamps are exactly the queue
                    # path's.
                    engine.inline_clock_advances += 1
                    if wake >= engine._observe_next:
                        engine._observe_through(wake)
                    engine.now = wake
                    value = None
                    continue
                engine._push_timer(wake, self._resume, (None,))
                return
            if target < 0.0:
                raise SimulationError(f"negative timeout: {target!r}")
            engine._schedule_now(self._resume, (None,))
            return


class Engine:
    """The discrete-event loop.

    Time is a float in *microseconds*.  All state mutation happens inside
    scheduled callbacks, which are executed in (time, insertion order).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: zero-delay entries, FIFO in insertion order; merged with the
        #: timer heap by (time, seq) so the execution order matches a single
        #: queue.
        self._ready: deque = deque()
        self._counter = 0
        #: time limit of the innermost ``run(until=...)`` (+inf when none);
        #: the inline clock advance must never step past it, because the
        #: slow path leaves later wake-ups parked in the heap.
        self._until: float = _INF
        #: the event the innermost run loop stops at (``run`` and an idle
        #: engine hold one that never fires); once it has fired, no inline
        #: path carries a process further, since the loop would not have
        #: dispatched its wake-up.
        self._stop = Event(self)
        #: what ``Resource.acquire`` returns for a free server: one event,
        #: already fired with a 0.0 wait.  Sharing it is safe because
        #: nothing mutates a fired event (``succeed`` raises, and
        #: ``add_callback`` schedules the callback at once).
        self._granted = Event(self).succeed(0.0)
        self._processes_started = 0
        #: future-time wake-ups, a binary heap of (time, seq, fn, args).
        self._timers: List = []
        #: (time, seq) of the earliest pending timer (+inf when none) --
        #: the one-compare guard every fast path checks.
        self._due_head: float = _INF
        self._due_seq = 0
        # -- kernel counters --------------------------------------------
        self.events_executed = 0
        #: positive-delay waits absorbed by advancing the clock in place:
        #: the wake-up was provably the globally next event, so the queue
        #: round-trip is skipped and ``now`` is set directly.
        self.inline_clock_advances = 0
        #: waits on an already-fired event resumed in place: the resume
        #: was provably the next event run (see Process._resume).
        self.inline_continuations = 0
        #: spawn-and-join children run as plain nested generators because
        #: nothing else was due at the instant they started (see subtask).
        self.subtasks_fused = 0
        #: cache-hit runs retired in one batch by the vectorized replay
        #: path (see ComputeBlade.run_thread); counted here so the repo
        #: benchmark sees all kernel-side fast paths in one place.
        self.batched_retires = 0
        #: the observability sink; NULL_TRACER unless a cluster installs one.
        self.tracer = NULL_TRACER
        #: the read-only observer and its period (see :meth:`observe`).
        self._observer: Optional[Callable[[float], None]] = None
        self._observe_interval = 0.0
        #: the next instant owed to the observer (+inf when none) -- like
        #: ``_due_head``, one float compare wherever the clock advances.
        self._observe_next: float = _INF
        #: named resources register here so run reports can rank queueing
        #: hotspots; anonymous resources (e.g. transient region locks) do
        #: not, keeping the registry bounded and deterministic.
        self.resources: List["Resource"] = []

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` microseconds of simulated time."""
        if delay <= 0:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            self._counter += 1
            self._ready.append((self.now, self._counter, fn, args))
            return
        self._push_timer(self.now + delay, fn, args)

    def _schedule_now(self, fn: Callable, args: tuple) -> None:
        """Zero-delay schedule on the ready deque (internal hot path)."""
        self._counter += 1
        self._ready.append((self.now, self._counter, fn, args))

    def _push_timer(self, wake: float, fn: Callable, args: tuple) -> None:
        """Insert a future-time entry into the timer heap (internal hot path)."""
        self._counter += 1
        heapq.heappush(self._timers, (wake, self._counter, fn, args))
        if wake < self._due_head:
            self._due_head = wake
            self._due_seq = self._counter

    def _timer_pop(self):
        """Pop the earliest timer entry; maintains ``_due_head``/``_due_seq``.

        Precondition: at least one timer is pending (``_due_head < inf``).
        """
        timers = self._timers
        entry = heapq.heappop(timers)
        if timers:
            head = timers[0]
            self._due_head = head[0]
            self._due_seq = head[1]
        else:
            self._due_head = _INF
            self._due_seq = 0
        if entry[0] >= self._observe_next:
            self._observe_through(entry[0])
        return entry

    def observe(self, interval: float, fn: Callable[[float], None]) -> None:
        """Call ``fn(t)`` once for each t = t0, t0 + interval, ... where
        t0 is the clock now.

        ``fn(t)`` runs when the clock is about to reach ``t``, before any
        event at ``t``; the t0 call comes when a run loop next starts.
        It may only read state: nothing is scheduled for it, so fusion,
        inline clock advances and batched replay fire exactly as in an
        unobserved run, and ``run()`` still drains.  One observer per
        engine.
        """
        if interval <= 0:
            raise ValueError("observation interval must be positive")
        if self._observer is not None:
            raise SimulationError("engine already has an observer")
        self._observer = fn
        self._observe_interval = interval
        self._observe_next = self.now

    def _observe_through(self, t: float) -> None:
        """Run the observer for every owed instant ``<= t``."""
        fn = self._observer
        interval = self._observe_interval
        nxt = self._observe_next
        while nxt <= t:
            fn(nxt)
            nxt = nxt + interval
        self._observe_next = nxt

    def pending_timer_count(self) -> int:
        """Future-time entries currently parked in the timer heap."""
        return len(self._timers)

    def kernel_stats(self) -> Dict[str, int]:
        """Scheduler-side counters for the repo benchmark (``benchmarks/perf``).

        These describe the *kernel's* work (events dispatched, fast-path
        hits), not the simulated system, and are deliberately kept out of
        sweep metrics: fast-path changes shift them without changing any
        simulated result, and sweep documents must stay byte-comparable
        across kernel versions.
        """
        return {
            "events_executed": self.events_executed,
            "processes_started": self._processes_started,
            "inline_clock_advances": self.inline_clock_advances,
            "inline_continuations": self.inline_continuations,
            "subtasks_fused": self.subtasks_fused,
            "batched_retires": self.batched_retires,
        }

    def event(self) -> Event:
        return Event(self)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator."""
        self._processes_started += 1
        return Process(self, gen, name)

    def subtask(self, gen: Generator) -> Generator:
        """Spawn-and-join a child generator: ``result = yield from
        engine.subtask(gen)`` stands for ``yield engine.process(gen)``.

        When nothing else is due at the current instant (so the child's
        start would have been the next event executed), the child
        generator itself is returned and the caller's ``yield from``
        drives it directly -- no Process allocation, no scheduler
        round-trips, no completion-event machinery, not even a wrapper
        frame.  The child's start is exactly what dispatching it next
        would have produced.  Its exit is not: a fused child's return
        resumes the caller in place, while a spawned child's completion
        event queues the caller's resume behind any ready entry due at
        that same instant, so the two can order same-instant work
        differently (pinned by ``test_fused_exit_is_observable``).  Any
        other time it falls back to a real spawn-and-join process.  The
        tracer plays no part in the decision: a fused child simply has no
        ``engine`` span.
        """
        if not self._ready and self._due_head > self.now:
            self.subtasks_fused += 1
            return gen
        return self._spawn_join(gen)

    def _spawn_join(self, gen: Generator) -> Generator:
        return (yield self.process(gen))

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires with ``value`` after ``delay`` microseconds."""
        ev = Event(self)
        self.schedule(delay, ev.succeed, value)
        return ev

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the final simulated time.  Stopping at ``until`` observes
        every instant up to it first (see :meth:`observe`).  An ``until``
        earlier than the clock raises: simulated time never runs back.
        """
        if until is None:
            until = _INF
        elif until < self.now:
            raise SimulationError(
                f"cannot run until {until}: the clock is already at {self.now}"
            )
        self._dispatch(Event(self), until)
        return self.now

    def run_until_complete(self, ev: Event) -> Any:
        """Run until ``ev`` fires; returns its value.

        Unlike :meth:`run`, this stops as soon as the awaited event fires,
        so it works with perpetual background processes (epoch loops) still
        scheduled.  Raises if the queue drains without the event firing
        (a deadlock).
        """
        self._dispatch(ev, _INF)
        if not ev.triggered:
            raise SimulationError("event never fired: simulation deadlocked")
        return ev.value

    def _dispatch(self, stop: Event, until: float) -> None:
        """The run loop: execute entries in ``(time, seq)`` order until
        ``stop`` fires, the queue drains, or the next entry lies past
        ``until`` (then the clock stops at ``until``)."""
        outer = self._stop, self._until
        self._stop = stop
        self._until = until
        ready = self._ready
        executed = 0
        if self._observe_next <= self.now:
            self._observe_through(self.now)
        try:
            while not stop.triggered:
                if ready:
                    due = self._due_head
                    first = ready[0]
                    if due < first[0] or (
                        due == first[0] and self._due_seq < first[1]
                    ):
                        entry = self._timer_pop()
                    else:
                        entry = ready.popleft()
                elif self._due_head != _INF:
                    if self._due_head > until:
                        if until >= self._observe_next:
                            self._observe_through(until)
                        self.now = until
                        return
                    entry = self._timer_pop()
                else:
                    return
                self.now = entry[0]
                entry[2](*entry[3])
                executed += 1
        finally:
            self.events_executed += executed
            self._stop, self._until = outer

    def run_process(self, gen: Generator, name: Optional[str] = None) -> Any:
        """Convenience: start a process, run until it completes, return its
        value.  Background processes keep their pending events queued."""
        proc = self.process(gen, name)
        return self.run_until_complete(proc)


class Resource:
    """A FIFO multi-server resource for modelling queueing delays.

    ``capacity`` servers; excess requests queue in arrival order.  Usage::

        token = yield resource.acquire()
        try:
            yield service_time
        finally:
            resource.release()

    The acquire event's value is the queueing delay experienced, which the
    caller may record (e.g. invalidation queueing in Fig. 7 right).

    Naming a resource registers it with the engine so run reports can rank
    queueing hotspots by accumulated wait time; anonymous resources stay
    unregistered (transient locks would bloat the registry).
    """

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_in_use",
        "_waiters",
        "busy_time",
        "_last_change",
        "total_wait_us",
        "waits",
        "grants",
    )

    def __init__(self, engine: Engine, capacity: int = 1, name: Optional[str] = None):
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque = deque()
        self.busy_time = 0.0
        self._last_change = 0.0
        #: accumulated queueing delay across all granted acquisitions.
        self.total_wait_us = 0.0
        #: acquisitions that had to queue / total acquisitions granted.
        self.waits = 0
        self.grants = 0
        if name is not None:
            engine.resources.append(self)

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    @property
    def in_use(self) -> int:
        return self._in_use

    def _take(self) -> bool:
        """Grant a free server in place; False when every server is busy.

        The quiet-instant argument is the caller's: :meth:`acquire` hands
        the grant over as an already-fired event, which the kernel only
        continues in place when nothing else is due, and ``Link.try_start``
        has checked that guard itself.
        """
        if self._in_use >= self.capacity:
            return False
        now = self.engine.now
        if now != self._last_change:  # fold the open busy interval
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
        self._in_use += 1
        self.grants += 1
        return True

    def acquire(self) -> Event:
        """Request a server; the event's value is the queueing delay.

        A free server is granted at once: the engine's shared fired event
        (value 0.0) comes back, and a process yielding it continues in
        place when nothing else is due at this instant.  Otherwise the
        request queues FIFO on a fresh event that :meth:`release` fires.
        """
        if self._take():
            return self.engine._granted
        engine = self.engine
        now = engine.now
        if now != self._last_change:  # fold the open busy interval
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
        ev = Event(engine)
        self._waiters.append((now, ev))
        if self.name is not None and engine.tracer.enabled:
            tracer = engine.tracer
            tracer.counter(
                now,
                "resource",
                f"{self.name}.queue",
                len(self._waiters),
                track=tracer.track("resources"),
            )
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without acquire")
        now = self.engine.now
        if now != self._last_change:  # fold the open busy interval
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
        if self._waiters:
            arrived, ev = self._waiters.popleft()
            wait = self.engine.now - arrived
            self.total_wait_us += wait
            self.waits += 1
            self.grants += 1
            if self.name is not None and self.engine.tracer.enabled:
                tracer = self.engine.tracer
                track = tracer.track("resources")
                tracer.complete(
                    arrived, wait, "resource", f"{self.name}.wait", track=track
                )
                tracer.counter(
                    self.engine.now,
                    "resource",
                    f"{self.name}.queue",
                    len(self._waiters),
                    track=track,
                )
            ev.succeed(wait)
        else:
            self._in_use -= 1

    def utilization(self) -> float:
        """Time-averaged fraction of capacity in use since engine start.

        A pure read: the open busy interval is added in a local, so a
        mid-run reading leaves the float sum in ``busy_time`` untouched.
        """
        now = self.engine.now
        if now <= 0:
            return 0.0
        busy = self.busy_time + self._in_use * (now - self._last_change)
        return busy / (now * self.capacity)
