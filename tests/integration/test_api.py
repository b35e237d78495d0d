"""End-to-end tests of the public API (repro.api)."""

import errno

import pytest

from repro.api import MindSystem, PermissionClass, SegmentationFault
from repro.blades.consistency import ConsistencyModel
from repro.core.controller import SyscallError
from repro.core.mmu import MindConfig
from repro.sim.network import PAGE_SIZE


@pytest.fixture
def system():
    return MindSystem(
        num_compute_blades=2,
        num_memory_blades=2,
        cache_capacity_pages=256,
        mind_config=MindConfig(
            directory_capacity=512,
            memory_blade_capacity=1 << 26,
            enable_bounded_splitting=False,
        ),
    )


class TestLifecycle:
    def test_spawn_process(self, system):
        proc = system.spawn_process("app")
        assert proc.pid >= 1000
        assert proc.name == "app"

    def test_threads_placed_round_robin(self, system):
        proc = system.spawn_process()
        t0, t1, t2 = (proc.spawn_thread() for _ in range(3))
        assert [t0.blade_id, t1.blade_id, t2.blade_id] == [0, 1, 0]

    def test_exit_cleans_up(self, system):
        proc = system.spawn_process()
        proc.mmap(PAGE_SIZE)
        proc.exit()
        with pytest.raises(Exception):
            proc.mmap(PAGE_SIZE)


class TestSharedMemory:
    def test_cross_blade_visibility(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(1 << 16)
        t0, t1 = proc.spawn_thread(), proc.spawn_thread()
        t0.write(buf, b"written-on-blade-0")
        assert t1.read(buf, 18) == b"written-on-blade-0"

    def test_write_after_write_across_blades(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(1 << 16)
        t0, t1 = proc.spawn_thread(), proc.spawn_thread()
        t0.write(buf, b"first")
        t1.write(buf, b"second")
        assert t0.read(buf, 6) == b"second"

    def test_interleaved_offsets(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(1 << 16)
        t0, t1 = proc.spawn_thread(), proc.spawn_thread()
        t0.write(buf + 0, b"AAAA")
        t1.write(buf + 4, b"BBBB")
        assert t0.read(buf, 8) == b"AAAABBBB"

    def test_page_spanning_write(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(1 << 16)
        t0 = proc.spawn_thread()
        payload = b"x" * (2 * PAGE_SIZE + 100)
        t0.write(buf + PAGE_SIZE - 50, payload)
        assert t0.read(buf + PAGE_SIZE - 50, len(payload)) == payload

    def test_touch_prefaults(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(PAGE_SIZE)
        t0 = proc.spawn_thread()
        t0.touch(buf)
        assert t0.blade.cache.peek(buf) is not None

    def test_run_concurrently(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(1 << 16)
        t0, t1 = proc.spawn_thread(), proc.spawn_thread()
        results = system.run_concurrently(
            [t0.store_gen(buf, b"zero"), t1.store_gen(buf + PAGE_SIZE, b"one")]
        )
        assert len(results) == 2
        assert t1.read(buf, 4) == b"zero"


class TestProtectionSemantics:
    def test_processes_isolated(self, system):
        a = system.spawn_process("a")
        b = system.spawn_process("b")
        buf = a.mmap(PAGE_SIZE)
        ta, tb = a.spawn_thread(), b.spawn_thread()
        ta.write(buf, b"secret")
        with pytest.raises(SegmentationFault):
            tb.read(buf, 6)

    @pytest.mark.parametrize(
        "consistency, write",
        [
            (ConsistencyModel.TSO, False),
            (ConsistencyModel.TSO, True),
            (ConsistencyModel.PSO, False),
        ],
    )
    def test_trace_replay_needs_its_own_pte(self, consistency, write):
        # A page another domain cached on this blade is not a hit: the
        # replay faults to the switch, which rejects the ungranted domain.
        system = MindSystem(num_compute_blades=1, num_memory_blades=1)
        a = system.spawn_process("a")
        b = system.spawn_process("b")
        buf = a.mmap(PAGE_SIZE)
        ta, tb = a.spawn_thread(), b.spawn_thread()
        ta.write(buf, b"secret")
        with pytest.raises(SegmentationFault, match="reject-no-entry"):
            system.cluster.run_process(
                tb.run_trace_gen([(buf, write)], consistency=consistency)
            )

    def test_mprotect_read_only(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(PAGE_SIZE)
        t = proc.spawn_thread()
        t.write(buf, b"data")
        proc.mprotect(buf, PermissionClass.READ_ONLY)
        with pytest.raises(SegmentationFault):
            t.write(buf, b"more")

    def test_mprotect_preserves_dirty_data(self, system):
        """Write-protecting a range must not lose the dirty bytes that
        were cached when the permission changed."""
        proc = system.spawn_process()
        buf = proc.mmap(PAGE_SIZE)
        t = proc.spawn_thread()
        t.write(buf, b"precious")
        proc.mprotect(buf, PermissionClass.READ_ONLY)
        assert t.read(buf, 8) == b"precious"

    def test_munmap_revokes(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(PAGE_SIZE)
        t = proc.spawn_thread()
        t.write(buf, b"data")
        proc.munmap(buf)
        with pytest.raises(SegmentationFault):
            t.read(buf, 4)

    @pytest.mark.parametrize("teardown", ["munmap", "exit"])
    def test_unmapped_vma_leaves_no_capability_grant(self, teardown):
        # A session domain granted on a vma must lose it when the vma goes,
        # or it reads whoever is mapped at that VA next.
        system = MindSystem(num_compute_blades=2, num_memory_blades=1)
        owner = system.spawn_process("owner")
        buf = owner.mmap(1 << 16)
        owner.grant_domain(buf, 4242, PermissionClass.READ_WRITE)
        if teardown == "munmap":
            owner.munmap(buf)
        else:
            owner.exit()
        assert system.cluster.mmu.protection.grants() == []
        victim = system.spawn_process("victim")
        assert victim.mmap(1 << 16) == buf
        victim.spawn_thread().write(buf, b"victim-secret")
        blade = system.cluster.compute_blades[1]
        with pytest.raises(SegmentationFault, match="reject-no-entry"):
            system.cluster.run_process(blade.load_bytes(4242, buf, 13))

    def test_only_the_vma_owner_revokes_its_grants(self):
        system = MindSystem(num_compute_blades=2, num_memory_blades=1)
        victim = system.spawn_process("victim")
        other = system.spawn_process("other")
        buf = victim.mmap(1 << 16)
        victim.spawn_thread().write(buf, b"mine")
        protection = system.cluster.mmu.protection
        grants = protection.grants()
        with pytest.raises(SyscallError) as exc:
            other.revoke_domain(buf, victim.pid)
        assert exc.value.errno == errno.EINVAL
        assert protection.grants() == grants
        # A new thread on the other blade still reads the victim's bytes.
        reader = victim.spawn_thread()
        assert reader.blade_id == 1
        assert reader.read(buf, 4) == b"mine"
        # The owner may revoke any domain's grant on its vma, its own too.
        victim.revoke_domain(buf, victim.pid)
        assert protection.grants() == []

    def test_grant_domain_capability_style(self, system):
        server = system.spawn_process("server")
        client = system.spawn_process("client")
        shared = server.mmap(PAGE_SIZE)
        server.grant_domain(shared, client.pid, PermissionClass.READ_ONLY)
        ts, tc = server.spawn_thread(), client.spawn_thread()
        ts.write(shared, b"published")
        assert tc.read(shared, 9) == b"published"
        with pytest.raises(SegmentationFault):
            tc.write(shared, b"nope")


class TestElasticity:
    def test_adding_threads_mid_run(self, system):
        """The transparent-elasticity story: scale compute without any
        change to the memory image."""
        proc = system.spawn_process()
        buf = proc.mmap(1 << 16)
        t0 = proc.spawn_thread()
        t0.write(buf, b"before-scale-out")
        t_new = proc.spawn_thread()  # lands on the other blade
        assert t_new.blade_id != t0.blade_id
        assert t_new.read(buf, 16) == b"before-scale-out"

    def test_many_threads_hammer_one_counter(self, system):
        """A shared counter incremented from both blades, serialized by
        coherence: no lost updates when increments are interleaved."""
        proc = system.spawn_process()
        buf = proc.mmap(PAGE_SIZE)
        threads = [proc.spawn_thread() for _ in range(4)]
        value = 0
        for round_ in range(3):
            for t in threads:
                raw = t.read(buf, 4)
                value = int.from_bytes(raw, "little") + 1
                t.write(buf, value.to_bytes(4, "little"))
        final = int.from_bytes(threads[0].read(buf, 4), "little")
        assert final == 12

    def test_stats_observable(self, system):
        proc = system.spawn_process()
        buf = proc.mmap(PAGE_SIZE)
        t0 = proc.spawn_thread()
        t0.write(buf, b"x")
        assert system.stats.counter("remote_accesses") >= 1
        assert system.now_us > 0
