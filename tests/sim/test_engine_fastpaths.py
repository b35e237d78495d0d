"""The kernel fast paths: the ready deque, the event freelist, inline
clock advances, and subtask fusion.

Every fast path is *unobservable* by design -- it may only fire when the
result is identical to the scheduler round-trip it replaces -- so these
tests pin both sides: the optimization actually engages (counters move)
and the simulated behaviour is exactly the slow path's.
"""

import pytest

from repro.sim.engine import (
    EVENT_POOL_CAPACITY,
    MAX_INLINE_ADVANCES,
    Engine,
    Resource,
)


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


class TestEventFreelist:
    def test_uncontended_acquire_events_are_recycled(self):
        # An uncontended acquire is granted at once, so its event is
        # consumed on the next resume and goes back to the freelist; fifty
        # acquire/release cycles must churn the same pooled object, not
        # allocate fifty events.
        engine = Engine()
        resource = Resource(engine, capacity=1)
        event_ids = set()

        def proc():
            for _ in range(50):
                grant = resource.acquire()
                event_ids.add(id(grant))
                wait = yield grant
                assert wait == 0.0
                yield 1.0
                resource.release()

        engine.run_process(proc())
        assert engine._event_pool  # the event came back to the pool
        assert len(event_ids) == 1  # ... and was reused every cycle

    def test_reuse_after_succeed_delivers_fresh_values(self):
        # A recycled Event must come back blank: a stale .value or
        # .triggered from its previous life would corrupt the next wait.
        engine = Engine()
        resource = Resource(engine, capacity=1)
        seen = []

        def proc():
            # Prime the pool with a consumed grant event...
            yield resource.acquire()
            resource.release()
            # ... which the timeouts below will pop and reuse.
            seen.append((yield engine.timeout(1.0, value="first")))
            seen.append((yield engine.timeout(1.0)))  # default None payload

        engine.run_process(proc())
        assert seen == ["first", None]

    def test_pool_is_bounded(self):
        engine = Engine()
        for _ in range(EVENT_POOL_CAPACITY + 50):
            ev = engine._pooled_event()
            ev._pooled = True
            engine._recycle(ev)
        assert len(engine._event_pool) <= EVENT_POOL_CAPACITY

    def test_resource_acquire_uses_pool_safely(self):
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
        # FIFO grants with correct queueing delays, through recycled events.
        assert waits == [("a", 0.0), ("b", 2.0), ("c", 4.0)]


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

    def test_budget_forces_scheduler_round_trips(self):
        # The budget caps how many advances one dispatch may absorb: a lone
        # sleeper must surface to the scheduler at least every
        # MAX_INLINE_ADVANCES steps (bounded starvation).
        engine = Engine()
        n = 10 * (MAX_INLINE_ADVANCES + 1)

        def proc():
            for _ in range(n):
                yield 1.0

        engine.run_process(proc())
        assert engine.now == float(n)
        assert engine.inline_clock_advances < n
        assert engine.events_executed >= n // (MAX_INLINE_ADVANCES + 1)

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
        # ci-quick exercises the batched replay path.
        assert kernel_totals["batched_retires"] > 0
        assert kernel_totals["events_executed"] > 0


def test_negative_yield_still_rejected():
    engine = Engine()

    def proc():
        yield -1.0

    with pytest.raises(Exception):
        engine.run_process(proc())
