"""Fail-over composed with concurrent control-plane activity.

Regression tests for two composition gaps:

* metadata that mutates *while* the backup switch installs its tables
  (a live mmap) must trigger a catch-up rebuild instead of being silently
  dropped -- and a mutation that changes no table (an elastic pool placing
  a thread) must not pay for one;
* capability-style ``grant_domain`` sessions must survive the rebuild --
  the replicated snapshot has to carry the full protection grant list,
  not just each task's own vmas.
"""

from repro.api import MindSystem
from repro.core.protection import PermissionClass
from repro.faults import FaultPlan
from repro.sim.network import PAGE_SIZE


def crash_plan(at_us: float) -> FaultPlan:
    return FaultPlan(seed=1).switch_crash(at_us=at_us)


class TestCatchupRebuild:
    def test_mmap_during_rebuild_triggers_catchup(self):
        system = MindSystem(num_compute_blades=2)
        proc = system.spawn_process("srv")
        base = proc.mmap(PAGE_SIZE * 8)
        system.inject_faults(crash_plan(at_us=1_000.0))
        thread = proc.spawn_thread()

        def mutate():
            # Crash at 1000, detection 500, snapshot read at ~1500: land
            # the mmap inside the table-install window that follows.
            yield 1_600.0
            proc.mmap(PAGE_SIZE * 4)

        def touch():
            yield from thread.store_gen(base, b"before")
            yield 6_000.0
            yield from thread.store_gen(base + PAGE_SIZE, b"after")

        system.run_concurrently([mutate(), touch()])
        stats = system.stats
        assert stats.counter("failover_rules_installed") > 0
        assert stats.counter("failover_catchup_rebuilds") == 1

    def test_thread_placement_during_rebuild_needs_no_catchup(self):
        system = MindSystem(num_compute_blades=2)
        proc = system.spawn_process("srv")
        base = proc.mmap(PAGE_SIZE * 8)
        system.inject_faults(crash_plan(at_us=1_000.0))
        thread = proc.spawn_thread()
        placed = []

        def place():
            # Inside the install window, as in the mmap case above.
            yield 1_600.0
            placed.append(proc.spawn_thread())

        def touch():
            yield from thread.store_gen(base, b"before")
            yield 6_000.0
            yield from placed[0].store_gen(base + PAGE_SIZE, b"after")

        system.run_concurrently([place(), touch()])
        stats = system.stats
        assert stats.counter("failovers_completed") == 1
        assert stats.counter("failover_catchup_rebuilds") == 0

    def test_quiet_rebuild_needs_no_catchup(self):
        system = MindSystem(num_compute_blades=2)
        proc = system.spawn_process("srv")
        base = proc.mmap(PAGE_SIZE * 8)
        system.inject_faults(crash_plan(at_us=1_000.0))
        thread = proc.spawn_thread()

        def touch():
            yield from thread.store_gen(base, b"before")
            yield 6_000.0
            yield from thread.store_gen(base + PAGE_SIZE, b"after")

        system.run_concurrently([touch()])
        stats = system.stats
        assert stats.counter("failover_rules_installed") > 0
        assert stats.counter("failover_catchup_rebuilds") == 0

    def test_mmap_after_rebuild_is_usable(self):
        # The catch-up path must leave a coherent plane behind: a region
        # mapped during the rebuild is readable once service resumes.
        system = MindSystem(num_compute_blades=2)
        proc = system.spawn_process("srv")
        proc.mmap(PAGE_SIZE * 8)
        system.inject_faults(crash_plan(at_us=1_000.0))
        thread = proc.spawn_thread()
        late: dict = {}

        def mutate():
            yield 1_600.0
            late["base"] = proc.mmap(PAGE_SIZE * 4)

        def touch():
            yield 6_000.0
            yield from thread.store_gen(late["base"], b"fresh")
            data = yield from thread.load_gen(late["base"], 5)
            late["data"] = data

        system.run_concurrently([mutate(), touch()])
        assert late["data"] == b"fresh"


class TestGrantsSurviveFailover:
    def test_session_domain_usable_after_switch_crash(self):
        system = MindSystem(num_compute_blades=2)
        proc = system.spawn_process("srv")
        base = proc.mmap(PAGE_SIZE * 4)
        proc.grant_domain(base, pdid=777, perm=PermissionClass.READ_WRITE)
        system.inject_faults(crash_plan(at_us=500.0))
        thread = proc.spawn_thread()
        blade = system.cluster.compute_blade(thread.blade_id)
        seen: dict = {}

        def touch():
            yield from blade.store_bytes(777, base, b"pre-crash")
            yield 6_000.0
            # Pre-fix this raised SegmentationFault: the rebuilt plane
            # derived protection from task vmas only, dropping the grant.
            yield from blade.store_bytes(777, base + 64, b"post-crash")
            data = yield from blade.load_bytes(777, base, 9)
            seen["data"] = data

        system.run_concurrently([touch()])
        assert seen["data"] == b"pre-crash"
        assert system.stats.counter("failover_rules_installed") > 0

    def test_revoked_domain_stays_revoked_after_failover(self):
        import pytest

        from repro.blades.compute import SegmentationFault

        system = MindSystem(num_compute_blades=2)
        proc = system.spawn_process("srv")
        base = proc.mmap(PAGE_SIZE * 4)
        proc.grant_domain(base, pdid=777, perm=PermissionClass.READ_WRITE)
        proc.revoke_domain(base, 777)
        system.inject_faults(crash_plan(at_us=500.0))
        thread = proc.spawn_thread()
        blade = system.cluster.compute_blade(thread.blade_id)

        def touch():
            yield 6_000.0
            yield from blade.store_bytes(777, base, b"nope")

        with pytest.raises(SegmentationFault):
            system.run_concurrently([touch()])
