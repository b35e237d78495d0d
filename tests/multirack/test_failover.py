"""Per-rack fail-over: one rack's switch dies, the others keep serving."""

import pytest

from repro.faults import FailoverConfig
from repro.multirack import MultiRackConfig, MultiRackFabric
from repro.sim.network import PAGE_SIZE

QUICK_FAILOVER = dict(
    detection_us=200.0, rebuild_base_us=50.0, degraded_window_us=500.0
)


@pytest.fixture
def rig():
    fabric = MultiRackFabric(
        MultiRackConfig(num_racks=2, compute_blades_per_rack=2)
    )
    pdid = fabric.spawn_process("survivor")
    buf0 = fabric.mmap(pdid, 8 * PAGE_SIZE, rack=0)
    buf1 = fabric.mmap(pdid, 8 * PAGE_SIZE, rack=1)
    return fabric, pdid, buf0, buf1


def _hammer(fabric, blade, pdid, base, n=150):
    # Paced so the worker's lifetime spans the whole crash-and-recover
    # sequence (cached re-touches are otherwise free and the engine would
    # stop before the rebuilt plane comes up).
    for i in range(n):
        yield 10.0
        yield from blade.ensure_page(
            pdid, base + (i % 8) * PAGE_SIZE, write=(i % 2 == 0)
        )


def _timed_probe(fabric, blade, pdid, va, at_us, out, key):
    if at_us > fabric.engine.now:
        yield at_us - fabric.engine.now
    t0 = fabric.engine.now
    yield from blade.ensure_page(pdid, va, False)
    out[key] = fabric.engine.now - t0


class TestRackFailover:
    def test_other_racks_keep_serving_through_the_outage(self, rig):
        fabric, pdid, buf0, buf1 = rig
        orch = fabric.enable_rack_failover(0, FailoverConfig(**QUICK_FAILOVER))
        orch.crash_at(300.0)
        b0 = fabric.compute_blades[0]  # rack 0: rides through the crash
        b2 = fabric.compute_blades[2]  # rack 1: must not notice
        probes = {}
        fabric.run_all(
            [
                _hammer(fabric, b0, pdid, buf0),
                # Mid-outage (crash at 300, detection alone is 200 us): a
                # rack-1-homed fault on a rack-1 blade completes at normal
                # latency because only rack 0's gate is closed.
                _timed_probe(
                    fabric, b2, pdid, buf1 + PAGE_SIZE, 400.0, probes, "r1"
                ),
                _timed_probe(
                    fabric, b2, pdid, buf1 + 2 * PAGE_SIZE, 450.0, probes, "r1b"
                ),
            ]
        )
        assert orch.crashes == 1
        (start, end) = orch.outage_windows[0]
        assert start == pytest.approx(300.0)
        assert probes["r1"] < 100.0
        assert probes["r1b"] < 100.0
        # Sanity: the probes really did land inside the outage window.
        assert start < 400.0 < end

    def test_crashed_rack_recovers_and_serves_again(self, rig):
        fabric, pdid, buf0, _buf1 = rig
        orch = fabric.enable_rack_failover(0, FailoverConfig(**QUICK_FAILOVER))
        b0, b1 = fabric.compute_blades[0], fabric.compute_blades[1]
        fabric.run_process(b0.store_bytes(pdid, buf0, b"pre-crash"))
        orch.crash_at(fabric.engine.now + 100.0)
        fabric.run_all([_hammer(fabric, b0, pdid, buf0)])
        assert fabric.stats.counter("failovers_completed") == 1
        # Pre-crash state survived the rack-0 quiesce + rebuild.
        got = fabric.run_process(b1.load_bytes(pdid, buf0, 9))
        assert got == b"pre-crash"

    def test_quiesce_is_range_limited_to_the_crashed_rack(self, rig):
        fabric, pdid, buf0, buf1 = rig
        orch = fabric.enable_rack_failover(0, FailoverConfig(**QUICK_FAILOVER))
        b2 = fabric.compute_blades[2]  # rack 1 blade
        # b2 caches one page from each rack before the crash.
        fabric.run_process(b2.ensure_page(pdid, buf0, False))
        fabric.run_process(b2.ensure_page(pdid, buf1, False))
        orch.crash_at(fabric.engine.now + 50.0)
        fabric.run_all(
            [_hammer(fabric, fabric.compute_blades[0], pdid, buf0)]
        )
        assert fabric.stats.counter("failovers_completed") == 1
        intra = fabric.stats.counter("intra_rack_faults")
        cross = fabric.stats.counter("cross_rack_faults")
        # The rack-1-homed page survived the quiesce: re-touching it is a
        # cache hit, no new fault.
        fabric.run_process(b2.ensure_page(pdid, buf1, False))
        assert fabric.stats.counter("intra_rack_faults") == intra
        # The rack-0-homed page was dropped by the range-limited quiesce:
        # re-touching it re-faults across the spine.
        fabric.run_process(b2.ensure_page(pdid, buf0, False))
        assert fabric.stats.counter("cross_rack_faults") == cross + 1

    def test_quiesce_range_is_the_rack_va_slice(self, rig):
        fabric, _pdid, _buf0, _buf1 = rig
        for r, node in enumerate(fabric.topology.racks):
            assert node.cluster.quiesce_range == fabric.shard.rack_range(r)

    def test_rack_above_zero_rebuilds_its_own_va_slice(self, rig):
        # Rack 1's switch owns a slice of the global VA space that does not
        # start at 0: the rebuilt translation table must keep each blade
        # range at its installed base, or replaying the rack's allocations
        # collides with ranges the backup never installed.
        fabric, pdid, _buf0, buf1 = rig
        b2 = fabric.compute_blades[2]  # rack 1 blade
        fabric.run_process(b2.store_bytes(pdid, buf1, b"rack-one"))
        mmu = fabric.racks[1]
        before = mmu.allocator.allocated_per_blade()
        orch = fabric.enable_rack_failover(1, FailoverConfig(**QUICK_FAILOVER))
        orch.crash_at(fabric.engine.now + 50.0)
        fabric.run_all([_hammer(fabric, b2, pdid, buf1)])
        assert orch.crashes == 1
        assert fabric.stats.counter("failovers_completed") == 1
        assert mmu.address_space.base_va == fabric.shard.rack_range(1)[0]
        assert mmu.address_space.translate(buf1).blade_id in before
        assert mmu.allocator.allocated_per_blade() == before
        got = fabric.run_process(b2.load_bytes(pdid, buf1, 8))
        assert got == b"rack-one"
