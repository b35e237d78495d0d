"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.sim.engine import AllOf, Engine, Event, Resource, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_runs_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(5.0, lambda: order.append("b"))
    engine.schedule(1.0, lambda: order.append("a"))
    engine.schedule(9.0, lambda: order.append("c"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 9.0


def test_schedule_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in ("first", "second", "third"):
        engine.schedule(1.0, order.append, tag)
    engine.run()
    assert order == ["first", "second", "third"]


def test_schedule_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1.0, lambda: None)


def test_run_until_stops_clock_early():
    engine = Engine()
    engine.schedule(10.0, lambda: None)
    assert engine.run(until=5.0) == 5.0
    assert engine.now == 5.0


def test_process_timeout_advances_clock():
    engine = Engine()

    def proc():
        yield 3.5
        yield 1.5
        return "done"

    assert engine.run_process(proc()) == "done"
    assert engine.now == 5.0


def test_process_zero_timeout_allowed():
    engine = Engine()

    def proc():
        yield 0
        return engine.now

    assert engine.run_process(proc()) == 0.0


def test_process_negative_timeout_rejected():
    engine = Engine()

    def proc():
        yield -1.0

    with pytest.raises(SimulationError):
        engine.run_process(proc())


def test_process_bad_yield_rejected():
    engine = Engine()

    def proc():
        yield "nonsense"

    with pytest.raises(SimulationError):
        engine.run_process(proc())


def test_event_wakes_waiting_process_with_value():
    engine = Engine()
    ev = engine.event()

    def waiter():
        value = yield ev
        return value

    proc = engine.process(waiter())
    engine.schedule(7.0, ev.succeed, 42)
    engine.run()
    assert proc.value == 42
    assert engine.now == 7.0


def test_event_double_succeed_rejected():
    engine = Engine()
    ev = engine.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_callback_after_trigger_fires_immediately():
    engine = Engine()
    ev = engine.event()
    ev.succeed("x")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    engine.run()
    assert seen == ["x"]


def test_multiple_waiters_all_resume():
    engine = Engine()
    ev = engine.event()
    results = []

    def waiter(tag):
        value = yield ev
        results.append((tag, value))

    for tag in ("a", "b", "c"):
        engine.process(waiter(tag))
    engine.schedule(1.0, ev.succeed, "v")
    engine.run()
    assert results == [("a", "v"), ("b", "v"), ("c", "v")]


def test_all_of_waits_for_every_event():
    engine = Engine()
    e1, e2 = engine.event(), engine.event()
    barrier = engine.all_of([e1, e2])
    engine.schedule(3.0, e1.succeed, 1)
    engine.schedule(8.0, e2.succeed, 2)

    def waiter():
        values = yield barrier
        return values

    proc = engine.process(waiter())
    engine.run()
    assert proc.value == [1, 2]
    assert engine.now == 8.0


def test_all_of_empty_fires_immediately():
    engine = Engine()
    barrier = engine.all_of([])
    assert barrier.triggered
    assert barrier.value == []


def test_all_of_with_pretriggered_events():
    engine = Engine()
    e1 = engine.event()
    e1.succeed("early")
    e2 = engine.event()
    barrier = engine.all_of([e1, e2])
    engine.schedule(1.0, e2.succeed, "late")
    engine.run()
    assert barrier.triggered
    assert barrier.value == ["early", "late"]


def test_process_join_returns_child_value():
    engine = Engine()

    def child():
        yield 2.0
        return "child-result"

    def parent():
        result = yield engine.process(child())
        return result

    assert engine.run_process(parent()) == "child-result"


def test_nested_process_joins_accumulate_time():
    engine = Engine()

    def leaf():
        yield 1.0

    def mid():
        yield engine.process(leaf())
        yield engine.process(leaf())

    def root():
        yield engine.process(mid())
        yield engine.process(mid())

    engine.run_process(root())
    assert engine.now == 4.0


def test_timeout_event_value():
    engine = Engine()
    ev = engine.timeout(5.0, "val")

    def waiter():
        return (yield ev)

    assert engine.run_process(waiter()) == "val"
    assert engine.now == 5.0


def test_run_until_complete_leaves_background_work_queued():
    engine = Engine()
    ticks = []

    def ticker():
        while True:
            yield 10.0
            ticks.append(engine.now)

    engine.process(ticker())

    def short():
        yield 25.0
        return "done"

    assert engine.run_process(short()) == "done"
    # The ticker ticked at 10 and 20 but was not drained past 25.
    assert ticks == [10.0, 20.0]
    assert engine.now == 25.0


def test_run_until_complete_deadlock_detected():
    engine = Engine()
    ev = engine.event()  # never fires

    def stuck():
        yield ev

    with pytest.raises(SimulationError):
        engine.run_process(stuck())


def test_determinism_same_schedule_same_result():
    def build_and_run():
        engine = Engine()
        log = []

        def worker(tag, delay):
            yield delay
            log.append((tag, engine.now))
            yield delay
            log.append((tag, engine.now))

        for i in range(5):
            engine.process(worker(i, 1.0 + i * 0.1))
        engine.run()
        return log

    assert build_and_run() == build_and_run()


class TestResource:
    def test_acquire_when_free_is_instant(self):
        engine = Engine()
        res = Resource(engine, capacity=1)

        def proc():
            ev = res.acquire()
            delay = yield ev
            return delay

        assert engine.run_process(proc()) == 0.0

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Engine(), capacity=0)

    def test_queueing_delay_reported(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        delays = []

        def holder():
            yield res.acquire()
            yield 10.0
            res.release()

        def waiter():
            ev = res.acquire()
            delay = yield ev
            delays.append(delay)
            res.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run()
        assert delays == [10.0]

    def test_fifo_ordering(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        order = []

        def user(tag):
            yield res.acquire()
            order.append(tag)
            yield 1.0
            res.release()

        for tag in ("a", "b", "c"):
            engine.process(user(tag))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_multi_server_capacity(self):
        engine = Engine()
        res = Resource(engine, capacity=2)
        finish_times = []

        def user():
            yield res.acquire()
            yield 10.0
            res.release()
            finish_times.append(engine.now)

        for _ in range(4):
            engine.process(user())
        engine.run()
        # Two run immediately, two queue: done at 10 and 20.
        assert finish_times == [10.0, 10.0, 20.0, 20.0]

    def test_release_without_acquire_rejected(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_utilization_accounting(self):
        engine = Engine()
        res = Resource(engine, capacity=1)

        def user():
            yield res.acquire()
            yield 5.0
            res.release()
            yield 5.0

        engine.run_process(user())
        assert res.utilization() == pytest.approx(0.5)

    def test_queue_length_and_in_use(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        res.acquire()
        assert res.in_use == 1
        res.acquire()
        assert res.queue_length == 1


def test_run_until_leaves_future_events_queued():
    engine = Engine()
    fired = []
    engine.schedule(2.0, fired.append, "early")
    engine.schedule(8.0, fired.append, "late")
    assert engine.run(until=5.0) == 5.0
    assert fired == ["early"]
    assert engine.pending_timer_count() == 1  # the t=8 event survives the pause
    # Resuming picks the queued event back up and drains it.
    assert engine.run() == 8.0
    assert fired == ["early", "late"]


def test_run_until_exactly_at_event_time_runs_it():
    engine = Engine()
    fired = []
    engine.schedule(5.0, fired.append, "on-time")
    engine.run(until=5.0)
    assert fired == ["on-time"]


class TestResourceAccounting:
    def test_multi_server_utilization_is_fraction_of_capacity(self):
        engine = Engine()
        res = Resource(engine, capacity=2)

        def user(hold):
            def gen():
                yield res.acquire()
                yield hold
                res.release()

            return gen()

        engine.process(user(10.0))
        engine.process(user(5.0))
        engine.run()
        # busy integral = 2 servers * 5us + 1 server * 5us = 15 server-us
        # over 10us * 2 capacity = 20 server-us.
        assert res.utilization() == pytest.approx(0.75)

    def test_utilization_reads_leave_the_account_alone(self):
        # A mid-run read must not fold the open busy interval into
        # busy_time: the float sum would split at the reader's instants and
        # round differently from an unread run.
        def run(seed, read):
            rng = random.Random(seed)
            engine = Engine()
            res = Resource(engine, capacity=2)

            def holder(steps):
                for gap, hold in steps:
                    yield gap
                    yield res.acquire()
                    yield hold
                    res.release()

            for _ in range(3):
                steps = [(rng.uniform(0.0, 2.0), rng.uniform(0.5, 3.0)) for _ in range(50)]
                engine.process(holder(steps))
            if read:

                def reader():
                    while True:
                        yield 0.9 + 0.2 * rng.random()
                        res.utilization()

                engine.process(reader())
            engine.run(until=100.0)
            return res.busy_time, res.utilization()

        for seed in range(8):
            assert run(seed, read=True) == run(seed, read=False)

    def test_utilization_before_time_advances_is_zero(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        res.acquire()
        assert res.utilization() == 0.0

    def test_queue_length_tracks_full_lifecycle(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        depths = []

        def holder():
            yield res.acquire()
            yield 4.0
            res.release()

        def waiter():
            yield 1.0
            depths.append(res.queue_length)  # before queueing
            ev = res.acquire()
            depths.append(res.queue_length)  # queued
            yield ev
            depths.append(res.queue_length)  # granted
            res.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run()
        assert depths == [0, 1, 0]
        assert res.in_use == 0

    def test_wait_accounting_accumulates_queueing_delay(self):
        engine = Engine()
        res = Resource(engine, capacity=1, name="lock")

        def holder():
            yield res.acquire()
            yield 6.0
            res.release()

        def waiter():
            yield 2.0
            ev = res.acquire()
            yield ev
            res.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run()
        assert res.total_wait_us == pytest.approx(4.0)
        assert res.waits == 1
        assert res.grants == 2

    def test_named_resources_register_with_engine(self):
        engine = Engine()
        named = Resource(engine, capacity=1, name="kernel")
        Resource(engine, capacity=1)  # anonymous: not registered
        assert engine.resources == [named]

    def test_contended_fifo_grant_order_with_many_waiters(self):
        engine = Engine()
        res = Resource(engine, capacity=1)
        order = []

        def user(tag):
            def gen():
                yield res.acquire()
                order.append(tag)
                yield 1.0
                res.release()

            return gen()

        for tag in range(20):
            engine.process(user(tag))
        engine.run()
        assert order == list(range(20))
