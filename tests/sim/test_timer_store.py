"""The timer store: one binary heap of future-time wake-ups, merged with
the zero-delay ready deque by the global (time, insertion seq) key.

The contract under test is the one the kernel's determinism rests on:
entries with equal timestamps fire in insertion order whenever they were
inserted, ``run(until=...)`` stops exactly on a timer's timestamp,
resumes cleanly and never runs the clock back, far-future timers fire at
their exact time, and timeout values come through the timer pop path.
"""

import pytest

from repro.sim.engine import Engine, SimulationError


class TestSameTimestampFifo:
    def test_fifo_for_timers_inserted_at_different_clock_times(self):
        # Four callbacks share one wake timestamp; two are inserted at
        # t=0 and two after the clock has advanced to t=100.  Execution
        # must still follow pure insertion order.
        engine = Engine()
        order = []
        wake = 512.0
        engine.schedule(wake, order.append, "early-0")
        engine.schedule(wake, order.append, "early-1")
        engine.schedule(100.0, order.append, "advance")
        engine.run(until=100.0)
        assert engine.now == 100.0
        engine.schedule(wake - engine.now, order.append, "late-2")
        engine.schedule(wake - engine.now, order.append, "late-3")
        engine.run()
        assert order == ["advance", "early-0", "early-1", "late-2", "late-3"]
        assert engine.now == wake

    def test_fifo_with_same_instant_ready_work(self):
        # A timer, a sleeping process waking at the same instant, the
        # zero-delay work it schedules, and a later timer must reproduce
        # single-queue order.
        engine = Engine()
        wake = 6.0
        order = []

        def proc():
            yield wake
            order.append("sleeper")
            engine.schedule(0.0, order.append, "ready-after")

        engine.schedule(wake, order.append, "timer-first")
        engine.process(proc())
        engine.schedule(wake + 2.0, order.append, "later")
        engine.run()
        assert order == ["timer-first", "sleeper", "ready-after", "later"]

    def test_ping_pong_sub_microsecond_delays_alternate(self):
        # Two processes sleeping the same short delay tie at every wake-up;
        # the earlier-inserted wake-up must win every tie.
        engine = Engine()
        order = []

        def proc(tag):
            for _ in range(2_600):
                yield 0.1
                order.append(tag)

        engine.process(proc("a"))
        engine.process(proc("b"))
        engine.run()
        assert order == ["a", "b"] * 2_600


class TestRunUntil:
    def test_stops_exactly_on_a_timer_and_resumes(self):
        # until= exactly on a timer's timestamp: that timer is <= until so
        # it runs; a later one stays parked, and a later run() picks it up
        # at its own timestamp.
        engine = Engine()
        hits = []
        engine.schedule(6.0, hits.append, "at-limit")
        engine.schedule(8.0, hits.append, "later")
        assert engine.run(until=6.0) == 6.0
        assert hits == ["at-limit"]
        assert engine.now == 6.0
        assert engine.pending_timer_count() == 1
        engine.run()
        assert hits == ["at-limit", "later"]
        assert engine.now == 8.0

    def test_until_before_the_clock_raises(self):
        # Time already simulated stays simulated: a limit behind the clock
        # is refused, and an event scheduled afterwards fires after it.
        engine = Engine()
        fired = []
        engine.schedule(10.0, fired.append, 10.0)
        engine.schedule(30.0, fired.append, 30.0)
        assert engine.run(until=20.0) == 20.0
        with pytest.raises(SimulationError):
            engine.run(until=5.0)
        assert engine.now == 20.0
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [10.0, 21.0, 30.0]


class TestFarFuture:
    def test_far_future_timer_fires_exactly(self):
        engine = Engine()
        fired = []
        engine.schedule(100_000.0, lambda: fired.append(engine.now))
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.0, 100_000.0]
        assert engine.pending_timer_count() == 0

    def test_far_timer_interleaves_with_a_walking_sleeper(self):
        # A sleeper stepping 2 us at a time walks past a timer parked long
        # before; the timer must fire between the right two steps.
        engine = Engine()
        events = []
        far = 515.0
        engine.schedule(far, lambda: events.append(("far", engine.now)))

        def walker():
            for _ in range(300):
                yield 2.0
                events.append(("step", engine.now))

        engine.process(walker())
        engine.run()
        i = events.index(("far", far))
        assert events[i - 1] == ("step", 514.0)
        assert events[i + 1] == ("step", 516.0)
        assert events[-1] == ("step", 600.0)


class TestTimeoutsUnderTimerPops:
    def test_timeout_values_flow_through_timer_pops(self):
        # Positive-delay timeouts park in the heap: every wait must get its
        # value, and the pops must actually flow through the timer pop path.
        engine = Engine()
        pops = []
        timer_pop = engine._timer_pop

        def counting_pop():
            pops.append(None)
            return timer_pop()

        engine._timer_pop = counting_pop

        def pin():
            # A competitor due earlier keeps the sleeper off the inline
            # clock-advance path, forcing real heap traffic.
            for _ in range(90):
                yield 1.5

        def proc():
            for i in range(40):
                got = yield engine.timeout(3.0, value=i)
                assert got == i

        engine.process(pin())
        engine.process(proc())
        engine.run()
        assert len(pops) >= 40
