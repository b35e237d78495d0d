"""The kernel fast paths: the ready deque, inline clock advances, inline
continuations, and subtask fusion.

Every fast path is *unobservable* by design -- it may only fire when the
result is identical to the scheduler round-trip it replaces -- so these
tests pin both sides: the optimization actually engages (counters move)
and the simulated behaviour is exactly the slow path's.
"""

import pytest

from repro.sim.engine import Engine, Resource


class TestZeroDelayOrder:
    """A zero-delay wait always goes through the ready deque."""

    def test_10k_zero_delay_chain_runs_through_ready_deque(self):
        engine = Engine()
        n = 10_000

        def proc():
            for _ in range(n):
                yield 0
            return "done"

        assert engine.run_process(proc()) == "done"
        assert engine.now == 0.0
        # The start plus one scheduler round-trip per zero-delay yield.
        assert engine.events_executed == n + 1

    def test_ping_pong_zero_delays_interleave_fifo(self):
        # Two processes ping-ponging zero delays must interleave exactly
        # as a single FIFO queue would interleave them.
        engine = Engine()
        order = []

        def proc(tag):
            for step in range(3):
                order.append((tag, step))
                yield 0

        engine.process(proc("a"))
        engine.process(proc("b"))
        engine.run()
        assert order == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
        ]

    def test_already_triggered_event_resumes_with_value(self):
        engine = Engine()
        ev = engine.event()
        ev.succeed("payload")

        def proc():
            got = yield ev
            return got

        assert engine.run_process(proc()) == "payload"


class TestInlineContinuation:
    """A wait on an already-fired event resumes in place only when the
    resume would have been the next event run anyway."""

    def test_free_grant_in_a_quiet_instant_continues_in_place(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def proc():
            wait = yield resource.acquire()
            resource.release()
            return wait

        assert engine.run_process(proc()) == 0.0
        assert engine.inline_continuations == 1
        # Only the process start was dispatched: the grant cost no event.
        assert engine.events_executed == 1

    def test_sibling_due_now_runs_first(self):
        # A free grant while other work is due at this instant goes back
        # through the ready deque, behind that work, exactly as the
        # scheduler orders it.
        engine = Engine()
        resource = Resource(engine, capacity=1)
        order = []

        def proc():
            engine.schedule(0.0, order.append, "sibling")
            wait = yield resource.acquire()
            order.append(("granted", wait))
            resource.release()

        engine.run_process(proc())
        assert order == ["sibling", ("granted", 0.0)]
        assert engine.inline_continuations == 0

    def test_stops_at_the_awaited_event(self):
        # A process fires the awaited event and keeps sleeping: the run
        # returns at the instant the event fired, not some sleeps later.
        engine = Engine()
        done = engine.event()

        def proc():
            yield 1.0
            done.succeed()
            while True:
                yield 1.0

        engine.process(proc())
        engine.run_until_complete(done)
        assert engine.now == 1.0


class TestWaitValues:
    """Every wait delivers its own value: a grant its queueing delay, a
    timeout its payload."""

    def test_queued_grants_are_fifo_with_their_waits(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        waits = []

        def worker(tag):
            wait = yield resource.acquire()
            waits.append((tag, wait))
            yield 2.0
            resource.release()

        for tag in ("a", "b", "c"):
            engine.process(worker(tag))
        engine.run()
        assert waits == [("a", 0.0), ("b", 2.0), ("c", 4.0)]

    def test_timeouts_deliver_their_values(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)
        seen = []

        def proc():
            # The shared fired grant must not leak its 0.0 into later waits.
            yield resource.acquire()
            resource.release()
            seen.append((yield engine.timeout(1.0, value="first")))
            seen.append((yield engine.timeout(1.0)))  # default None payload

        engine.run_process(proc())
        assert seen == ["first", None]


class TestReadyDeque:
    def test_zero_delay_interleaves_with_due_heap_entries(self):
        # Zero-delay schedules bypass the heap but must still execute in
        # global insertion order relative to heap entries due at the same
        # instant.
        engine = Engine()
        order = []
        engine.schedule(0.0, order.append, "ready-1")
        engine.schedule(0.0, order.append, "ready-2")
        engine.run()
        assert order == ["ready-1", "ready-2"]

    def test_succeed_at_now_never_reorders_callbacks(self):
        engine = Engine()
        order = []
        ev = engine.event()
        ev.add_callback(lambda e: order.append("first-waiter"))
        ev.add_callback(lambda e: order.append("second-waiter"))
        engine.schedule(0.0, lambda: (ev.succeed(), order.append("trigger"))[1])
        engine.run()
        assert order == ["trigger", "first-waiter", "second-waiter"]


class TestInlineClockAdvance:
    def test_sole_actor_advances_clock_without_heap(self):
        # A lone process sleeping repeatedly is always the globally next
        # event, so the kernel advances the clock in place.
        engine = Engine()

        def proc():
            for _ in range(30):
                yield 2.5
            return engine.now

        assert engine.run_process(proc()) == 75.0
        assert engine.now == 75.0
        assert engine.inline_clock_advances > 0

    def test_never_advances_past_an_earlier_heap_entry(self):
        # A sleeper may only jump ahead when every heap entry is strictly
        # later; an event due sooner must run first, at its own timestamp.
        engine = Engine()
        times = []

        def sleeper():
            yield 10.0
            times.append(("sleeper", engine.now))

        def early():
            yield 4.0
            times.append(("early", engine.now))

        engine.process(sleeper())
        engine.process(early())
        engine.run()
        assert times == [("early", 4.0), ("sleeper", 10.0)]

    def test_respects_run_until_limit(self):
        # run(until=...) leaves later wake-ups parked in the heap; the
        # fast path must not carry a process past the limit.
        engine = Engine()
        reached = []

        def proc():
            for _ in range(10):
                yield 3.0
                reached.append(engine.now)

        engine.process(proc())
        assert engine.run(until=7.5) == 7.5
        assert reached == [3.0, 6.0]
        # ... and a later run() resumes exactly where the limit cut in.
        engine.run()
        assert reached[-1] == 30.0

    def test_timestamps_match_heap_path_bit_for_bit(self):
        # The advance stores now + delay exactly as the heap entry would
        # have, so accumulated float error is identical on both paths.
        fast = Engine()
        slow = Engine()

        def proc(engine, log):
            for _ in range(100):
                yield 0.1
                log.append(engine.now)

        fast_log, slow_log = [], []
        fast.process(proc(fast, fast_log))
        # Pin a competing process in the slow engine so every wait parks
        # in the heap (the guard sees an entry due before the wake-up).
        def pin(engine):
            for _ in range(200):
                yield 0.05

        slow.process(pin(slow))
        slow.process(proc(slow, slow_log))
        fast.run()
        slow.run()
        assert fast.inline_clock_advances > 0
        assert fast_log == slow_log


class TestSubtaskFusion:
    def test_fuses_when_idle_and_returns_child_result(self):
        engine = Engine()

        def child():
            yield 1.0
            return "child-result"

        def parent():
            got = yield from engine.subtask(child())
            return got

        assert engine.run_process(parent()) == "child-result"
        assert engine.now == 1.0
        assert engine.subtasks_fused == 1

    def test_falls_back_to_process_when_work_is_due(self):
        engine = Engine()
        order = []

        def child(tag):
            order.append(tag)
            yield 1.0

        def parent():
            # Sibling work due now: fusing would run the child's first
            # step ahead of it, so subtask must spawn a real process.
            engine.schedule(0.0, order.append, "sibling")
            yield from engine.subtask(child("child"))

        engine.run_process(parent())
        assert order == ["sibling", "child"]
        assert engine.subtasks_fused == 0

    def test_fuses_when_tracing(self):
        from repro.obs.tracer import Tracer

        engine = Engine()
        engine.tracer = Tracer(enabled=True)

        def child():
            yield 1.0
            return 42

        def parent():
            return (yield from engine.subtask(child()))

        # The tracer observes; it does not decide.  Nothing else is due,
        # so the child is fused exactly as in an untraced run -- and,
        # having no process, it leaves no ``engine`` span.
        assert engine.run_process(parent(), name="parent") == 42
        assert engine.now == 1.0
        assert engine.subtasks_fused == 1
        assert engine.kernel_stats()["processes_started"] == 1
        spans = [rec[4] for rec in engine.tracer.records() if rec[3] == "engine"]
        assert spans == ["parent"]

    def test_fused_exit_is_observable(self):
        """A known gap in the unobservability contract, pinned so a fix
        shows up: fusion decides at the child's *start*, but at its exit
        the parent resumes in place, ahead of ready entries due at that
        same instant.  A spawned child's exit fires a completion event,
        whose resume of the parent queues behind them."""

        def run(fuse):
            engine = Engine()
            log = []
            ev = engine.event()

            def b():
                yield 1.0
                ev.succeed()

            def c():
                yield ev
                log.append("C")

            def child():
                yield 1.0

            def a():
                if fuse:
                    yield from engine.subtask(child())
                else:
                    yield engine.process(child())
                log.append("A-after")

            engine.process(b())
            engine.process(c())
            engine.process(a())
            engine.run()
            return log, engine.subtasks_fused

        assert run(fuse=True) == (["A-after", "C"], 1)
        assert run(fuse=False) == (["C", "A-after"], 0)


class TestKernelStats:
    def test_counters_are_exported(self):
        engine = Engine()

        def proc():
            yield 0
            yield from engine.subtask(iter_child())

        def iter_child():
            yield 1.0

        engine.run_process(proc())
        stats = engine.kernel_stats()
        assert stats["events_executed"] == engine.events_executed
        assert stats["inline_clock_advances"] == engine.inline_clock_advances
        assert stats["inline_continuations"] == engine.inline_continuations
        assert stats["subtasks_fused"] == engine.subtasks_fused
        assert stats["processes_started"] >= 1


class TestBenchSpeedDocument:
    """The kernel counters a live ci-quick point reports -- the figures
    the speed benchmark records -- must cover every kernel fast path: a
    counter that silently vanished is a fast path the benchmark stopped
    watching."""

    @pytest.fixture(scope="class")
    def kernel_totals(self):
        from repro.runner import run_system
        from repro.sweep.presets import preset_grids
        from repro.sweep.spec import SweepSpec, build_workload_cached

        point = SweepSpec(grids=preset_grids("ci-quick"), seeds=[1]).points()[0]
        assert point.system == "mind"
        result = run_system(
            point.system,
            build_workload_cached(point),
            point.num_blades,
            point.runner_config(),
        )
        return result.kernel_stats

    def test_kernel_totals_match_engine_counters(self, kernel_totals):
        # The run's totals and a fresh engine's kernel_stats() must name
        # the same counters.
        assert set(kernel_totals) == set(Engine().kernel_stats())

    def test_batch_counters_are_live(self, kernel_totals):
        # ci-quick exercises the batched replay path and every other
        # kernel fast path.
        assert kernel_totals["batched_retires"] > 0
        assert kernel_totals["events_executed"] > 0
        assert kernel_totals["inline_continuations"] > 0
        assert kernel_totals["inline_clock_advances"] > 0
        assert kernel_totals["subtasks_fused"] > 0


def test_negative_yield_still_rejected():
    engine = Engine()

    def proc():
        yield -1.0

    with pytest.raises(Exception):
        engine.run_process(proc())
