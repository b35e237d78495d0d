"""``run(until=...)`` on the timestamps that were structural edges of the
former calendar-queue timer store: a 2 us bucket boundary (6 us) and the
256-slot wheel horizon (512 us).

The heap timer store has no buckets or horizon, so these are plain
timestamps now; they are kept as regression cases because the stop rule
(a timer at exactly ``until`` runs, a later one stays pending) is the one
the old structure was most likely to get wrong at exactly these points.
"""

from repro.sim.engine import Engine

#: a former bucket boundary: three 2 us buckets past t=0.
EDGE_US = 6.0
#: the former wheel horizon: 256 slots of 2 us each.
HORIZON_US = 512.0


class TestRunUntilBucketEdge:
    def test_stops_exactly_on_the_edge_and_resumes(self):
        # until= exactly on a timer's timestamp: that timer is <= until so
        # it runs; a later one stays parked, and a later run() picks it up
        # at its own timestamp.
        engine = Engine()
        hits = []
        engine.schedule(EDGE_US, hits.append, "at-edge")
        engine.schedule(EDGE_US + 2.0, hits.append, "later")
        assert engine.run(until=EDGE_US) == EDGE_US
        assert hits == ["at-edge"]
        assert engine.now == EDGE_US
        assert engine.pending_timer_count() == 1
        engine.run()
        assert hits == ["at-edge", "later"]
        assert engine.now == EDGE_US + 2.0

    def test_until_on_horizon_leaves_overflow_untouched(self):
        # A timer far out at the stop time is not past the limit, so it
        # runs; one strictly later stays pending.
        engine = Engine()
        hits = []
        engine.schedule(HORIZON_US, hits.append, "at-horizon")
        engine.schedule(HORIZON_US + 1.0, hits.append, "beyond")
        assert engine.run(until=HORIZON_US) == HORIZON_US
        assert hits == ["at-horizon"]
        assert engine.pending_timer_count() == 1
        engine.run()
        assert hits == ["at-horizon", "beyond"]
