"""Live switch fail-over *inside* the simulation (Section 4.4, end to end).

The FailoverOrchestrator crashes the primary switch while an application is
mid-workload: the coherence gate closes, the backup's tables are rebuilt
from the replicated control plane, blades are quiesced (dirty pages flushed
to the memory blades), and service resumes on the rebuilt plane.  These
tests verify the full loop: the memory image survives byte-for-byte, the
unavailability window is finite and bounded by the cost model, in-flight
transactions are re-issued rather than lost, the directory re-warms from
all-Invalid, and table entries the vma lists do not show (a rack's VA
slice, migration routes and shadows, retired blades) survive the rebuild.
"""

import pytest

from repro.faults import FailoverConfig, FaultPlan
from repro.sim.network import PAGE_SIZE

from conftest import small_cluster


def _store(cluster, blade_idx, pid, va, payload):
    cluster.run_process(
        cluster.compute_blades[blade_idx].store_bytes(pid, va, payload)
    )


def test_workload_survives_in_sim_switch_failover():
    cluster = small_cluster(num_compute=2, num_memory=2, cache_pages=64)
    ctl = cluster.controller
    task = ctl.sys_exec("survivor")
    bufs = [ctl.sys_mmap(task.pid, 4 * PAGE_SIZE) for _ in range(4)]
    payloads = {buf: f"state-{i}".encode() for i, buf in enumerate(bufs)}
    for i, buf in enumerate(bufs):
        _store(cluster, i % 2, task.pid, buf, payloads[buf])

    # Arm fail-over *after* the metadata exists; the backup installs the
    # control plane as it stands when the crash is detected.
    failover = cluster.enable_failover()

    # Crash mid-workload: two threads hammer shared pages while the
    # primary dies underneath them.
    crash_at = cluster.engine.now + 200.0
    cluster.inject_faults(FaultPlan(seed=1).switch_crash(at_us=crash_at))

    # Both blades write the same pages: the ownership ping-pong keeps
    # coherence traffic flowing across the crash.
    def worker(blade):
        for i in range(300):
            buf = bufs[i % len(bufs)]
            yield from blade.ensure_page(
                task.pid, buf + (i % 4) * PAGE_SIZE, write=(i % 2 == 0)
            )

    cluster.run_all([worker(b) for b in cluster.compute_blades])

    # The crash actually happened, recovery completed, service resumed.
    assert failover.crashes == 1
    assert len(failover.outage_windows) == 1
    start, end = failover.outage_windows[0]
    assert start == pytest.approx(crash_at)
    outage = end - start
    assert outage > 0
    # Bounded: detection + rebuild + rule installs + quiesce; generous cap.
    cfg = failover.config
    assert outage < cfg.detection_us + cfg.rebuild_base_us + 10_000
    assert cluster.stats.counter("failovers_completed") == 1
    assert cluster.stats.gauges["unavailability_us"] == pytest.approx(outage)
    # The coherence gate is open again.
    assert cluster.mmu.coherence._outage is None

    # Every byte of pre-crash application state survived the fail-over:
    # the quiesce flushed dirty pages, memory blades held ground truth,
    # and the rebuilt translation/protection tables still reach it.
    for i, buf in enumerate(bufs):
        data = cluster.run_process(
            cluster.compute_blades[i % 2].load_bytes(
                task.pid, buf, len(payloads[buf])
            )
        )
        assert data == payloads[buf]

    # Coherence still works across blades on the rebuilt plane.
    _store(cluster, 0, task.pid, bufs[0], b"post-failover")
    got = cluster.run_process(
        cluster.compute_blades[1].load_bytes(task.pid, bufs[0], 13)
    )
    assert got == b"post-failover"

    # The directory was rebuilt all-Invalid and re-warmed via re-faults.
    assert cluster.mmu.directory is not None
    assert len(cluster.mmu.directory) >= 1
    assert cluster.mmu.coherence.directory is cluster.mmu.directory


def test_inflight_transactions_reissued_not_lost():
    cluster = small_cluster(num_compute=2, num_memory=1, cache_pages=64)
    ctl = cluster.controller
    task = ctl.sys_exec("inflight")
    buf = ctl.sys_mmap(task.pid, 64 * PAGE_SIZE)
    cluster.enable_failover()
    # Crash at a time that lands mid-transaction (faults take ~10 us).
    cluster.inject_faults(FaultPlan(seed=2).switch_crash(at_us=105.0))

    def worker(blade):
        for i in range(200):
            yield from blade.ensure_page(
                task.pid, buf + (i % 32) * PAGE_SIZE, write=(i % 3 == 0)
            )

    cluster.run_all([worker(b) for b in cluster.compute_blades])
    # Transactions in flight at the crash came back stale and were
    # transparently re-issued by the blades -- never dropped or hung.
    assert cluster.stats.counter("stale_transactions") >= 1
    assert cluster.stats.counter("faults_reissued") == cluster.stats.counter(
        "stale_transactions"
    )
    assert cluster.stats.counter("failovers_completed") == 1


def test_failover_restores_region_size_bounds():
    cluster = small_cluster(
        num_compute=2,
        num_memory=1,
        initial_region_size=8 * PAGE_SIZE,
        max_region_size=64 * PAGE_SIZE,
    )
    ctl = cluster.controller
    task = ctl.sys_exec("bounds")
    buf = ctl.sys_mmap(task.pid, 16 * PAGE_SIZE)
    cluster.enable_failover()
    cluster.inject_faults(FaultPlan().switch_crash(at_us=50.0))

    def worker(blade):
        for i in range(100):
            yield from blade.ensure_page(task.pid, buf + (i % 16) * PAGE_SIZE, False)

    cluster.run_all([worker(cluster.compute_blades[0])])
    # Bounded Splitting policy state survives the fail-over (satellite of
    # the snapshot fix): the rebuilt directory keeps the primary's bounds.
    assert cluster.mmu.directory.initial_region_size == 8 * PAGE_SIZE
    assert cluster.mmu.directory.max_region_size == 64 * PAGE_SIZE


def _load(cluster, blade_idx, pid, va, n):
    return cluster.run_process(
        cluster.compute_blades[blade_idx].load_bytes(pid, va, n)
    )


def test_failover_keeps_migrated_route_and_shadow():
    cluster = small_cluster(num_compute=2, num_memory=3, cache_pages=128)
    ctl = cluster.controller
    task = ctl.sys_exec("migrant")
    base = ctl.sys_mmap(task.pid, 4 * PAGE_SIZE)
    _store(cluster, 0, task.pid, base, b"before-migration")
    dst = (cluster.mmu.address_space.translate(base).blade_id + 1) % 3
    record = cluster.run_process(
        cluster.mmu.migration.migrate_range(base, 4 * PAGE_SIZE, dst)
    )
    _store(cluster, 0, task.pid, base, b"after--migration")
    # Blade 1's read downgrades blade 0's dirty copy, which flushes the
    # page to the destination: only the destination holds the new bytes.
    assert _load(cluster, 1, task.pid, base, 16) == b"after--migration"
    cluster.enable_failover()
    cluster.inject_faults(
        FaultPlan(seed=1).switch_crash(at_us=cluster.engine.now + 10.0)
    )
    cluster.run(until=cluster.engine.now + 5_000.0)
    assert cluster.stats.counter("failovers_completed") == 1
    # The backup installs the outlier route and keeps the shadow range
    # that backs it, so the next read is served from the destination.
    xlate = cluster.mmu.address_space.translate(base)
    assert (xlate.blade_id, xlate.pa, xlate.outlier) == (dst, record.dst_pa, True)
    shadows = cluster.mmu.allocator.blade(dst).live_allocations()
    assert shadows.get(record.dst_shadow_va) == 4 * PAGE_SIZE
    assert _load(cluster, 1, task.pid, base, 16) == b"after--migration"


def test_failover_after_blade_retirement():
    cluster = small_cluster(num_compute=2, num_memory=3, cache_pages=128)
    ctl = cluster.controller
    task = ctl.sys_exec("retiree")
    bufs = [ctl.sys_mmap(task.pid, 4 * PAGE_SIZE) for _ in range(3)]
    payloads = {buf: f"retired-{i}".encode() for i, buf in enumerate(bufs)}
    for i, buf in enumerate(bufs):
        _store(cluster, i % 2, task.pid, buf, payloads[buf])
    victim = cluster.mmu.address_space.translate(bufs[0]).blade_id
    cluster.run_process(cluster.mmu.migration.retire_blade(victim, ctl.tasks()))
    before = cluster.mmu.allocator.allocated_per_blade()
    cluster.enable_failover()
    cluster.inject_faults(
        FaultPlan(seed=1).switch_crash(at_us=cluster.engine.now + 10.0)
    )

    def worker(blade):
        for i in range(60):
            yield 10.0
            buf = bufs[i % len(bufs)]
            yield from blade.ensure_page(
                task.pid, buf + (i % 4) * PAGE_SIZE, write=(i % 2 == 0)
            )

    cluster.run_all([worker(b) for b in cluster.compute_blades])
    assert cluster.stats.counter("failovers_completed") == 1
    assert cluster.mmu.allocator.allocated_per_blade() == before
    for buf, want in payloads.items():
        assert cluster.mmu.address_space.translate(buf).blade_id != victim
        assert _load(cluster, 1, task.pid, buf, len(want)) == want
    # New placements after fail-over land on surviving blades only.
    fresh = ctl.sys_mmap(task.pid, PAGE_SIZE)
    assert cluster.mmu.address_space.translate(fresh).blade_id in before

def test_degraded_phase_latency_is_attributed():
    cluster = small_cluster(num_compute=2, num_memory=1, cache_pages=32)
    ctl = cluster.controller
    task = ctl.sys_exec("phases")
    buf = ctl.sys_mmap(task.pid, 64 * PAGE_SIZE)
    cluster.enable_failover(FailoverConfig(degraded_window_us=500.0))
    cluster.inject_faults(FaultPlan().switch_crash(at_us=400.0))

    def worker(blade):
        for i in range(400):
            yield from blade.ensure_page(
                task.pid, buf + (i % 48) * PAGE_SIZE, write=(i % 2 == 0)
            )

    cluster.run_all([worker(b) for b in cluster.compute_blades])
    lat = cluster.stats.latencies
    assert lat.get("fault:phase:pre")
    assert lat.get("fault:phase:degraded")
    assert lat.get("fault:phase:post")
    # Degraded faults absorbed the outage window: their max dwarfs pre.
    assert max(lat["fault:phase:degraded"]) > max(lat["fault:phase:pre"])
