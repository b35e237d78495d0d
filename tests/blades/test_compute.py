"""Behavioural tests for the compute blade (fault path, threads, PSO)."""

import pytest

from repro.blades.consistency import ConsistencyModel
from repro.blades.memory import ZERO_PAGE
from repro.sim.network import PAGE_SIZE

from conftest import small_cluster


def setup_proc(cluster, length=1 << 20):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


class TestFaultPath:
    def test_fault_populates_cache_and_ptes(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(pid, base, write=False))
        assert blade.cache.peek(base).domains == {pid: False}

    def test_pte_writability_mirrors_cache(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(pid, base, write=True))
        page = blade.cache.peek(base)
        assert page.domains == {pid: True}
        assert page.writable

    def test_hit_costs_only_dram(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(pid, base, write=False))
        t0 = cluster.engine.now
        cluster.run_process(blade.ensure_page(pid, base, write=False))
        assert cluster.engine.now - t0 == pytest.approx(
            cluster.network.config.dram_access_us
        )

    def test_concurrent_faults_same_page_deduplicated(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_all(
            [blade.ensure_page(pid, base, False) for _ in range(5)]
        )
        assert cluster.stats.counter("remote_accesses") == 1

    def test_eviction_unmaps_pte(self, cluster):
        pid, base = setup_proc(cluster, length=1 << 20)
        blade = cluster.compute_blades[0]
        for i in range(blade.cache.capacity_pages + 5):
            cluster.run_process(blade.ensure_page(pid, base + i * PAGE_SIZE, False))
        # The first page was evicted: not cached, and its PTEs went with it.
        assert base not in blade.cache
        assert cluster.stats.counter("evictions") >= 5

    def test_read_refill_keeps_write_permission(self, cluster):
        """A read fault that lands on a page a sibling thread has just
        write-faulted in (replay pays its local debt before faulting) must
        not write-protect the domain's PTE behind the writer's back."""
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(pid, base, write=True))
        cluster.run_process(blade._fault(pid, base, False))
        assert blade.cache.peek(base).domains == {pid: True}
        t0 = cluster.engine.now
        cluster.run_process(blade.ensure_page(pid, base, write=True))
        assert cluster.engine.now - t0 == pytest.approx(
            cluster.network.config.dram_access_us
        )

    def test_dirty_eviction_flushes(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(pid, base, write=True))
        for i in range(1, blade.cache.capacity_pages + 2):
            cluster.run_process(blade.ensure_page(pid, base + i * PAGE_SIZE, False))
        cluster.run(until=cluster.engine.now + 1000)  # let async flush land
        assert cluster.stats.counter("eviction_flushes") == 1
        assert cluster.stats.counter("pages_written_back") >= 1


class TestByteApi:
    def test_store_load_round_trip(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.store_bytes(pid, base + 100, b"hello"))
        out = cluster.run_process(blade.load_bytes(pid, base + 100, 5))
        assert out == b"hello"

    def test_cross_page_store_load(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        payload = bytes(range(200)) * 50  # 10000 bytes, spans 3 pages
        va = base + PAGE_SIZE - 100
        cluster.run_process(blade.store_bytes(pid, va, payload))
        out = cluster.run_process(blade.load_bytes(pid, va, len(payload)))
        assert out == payload

    def test_unwritten_memory_reads_zero(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        out = cluster.run_process(blade.load_bytes(pid, base, 16))
        assert out == bytes(16)


class TestCopyOnWrite:
    """A fill shares the memory blade's bytes; the first store copies."""

    def test_store_to_a_never_written_page_copies(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        untouched = base + PAGE_SIZE
        cluster.run_process(blade.ensure_page(pid, untouched, False))
        cluster.run_process(blade.ensure_page(pid, base, False))
        # Both fills share the one zero page: nothing was copied yet.
        assert blade.cache.peek(base).data is ZERO_PAGE
        assert blade.cache.peek(untouched).data is ZERO_PAGE
        cluster.run_process(blade.store_bytes(pid, base, b"hello"))
        written = blade.cache.peek(base).data
        assert type(written) is bytearray and written[:5] == b"hello"
        assert ZERO_PAGE == bytes(PAGE_SIZE)
        assert blade.cache.peek(untouched).data is ZERO_PAGE
        assert cluster.run_process(blade.load_bytes(pid, untouched, 5)) == bytes(5)
        xlate = cluster.mmu.address_space.translate(base)
        memory = cluster.memory_blades[xlate.blade_id]
        assert memory.read_page(xlate.pa) is ZERO_PAGE

    def test_store_leaves_the_memory_blades_page_intact(self, cluster):
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"first"))
        # b1's read downgrades b0, whose write-back lands before the fetch.
        assert cluster.run_process(b1.load_bytes(pid, base, 5)) == b"first"
        xlate = cluster.mmu.address_space.translate(base)
        stored = cluster.memory_blades[xlate.blade_id].read_page(xlate.pa)
        assert b1.cache.peek(base).data is stored
        cluster.run_process(b1.store_bytes(pid, base, b"second"))
        assert stored[:6] == b"first\0"
        assert cluster.run_process(b1.load_bytes(pid, base, 6)) == b"second"


class TestRunThread:
    def test_returns_access_count(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        trace = [(base + (i % 4) * PAGE_SIZE, i % 2 == 0) for i in range(100)]
        count = cluster.run_process(blade.run_thread(pid, trace))
        assert count == 100

    def test_local_hits_batched_but_charged(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        cluster.run_process(blade.ensure_page(pid, base, True))
        t0 = cluster.engine.now
        trace = [(base, False)] * 1000
        cluster.run_process(blade.run_thread(pid, trace))
        elapsed = cluster.engine.now - t0
        expected = 1000 * cluster.network.config.dram_access_us
        assert elapsed == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("model", [ConsistencyModel.TSO, ConsistencyModel.PSO])
    def test_page_landed_during_debt_payment_is_a_hit(self, cluster, model):
        """A thread misses, pays its local-time debt, and meanwhile a
        sibling's fault lands the page: the access is a hit, not a second
        remote fault."""
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        warm, page = base, base + PAGE_SIZE
        cluster.run_process(blade.ensure_page(pid, warm, False))
        assert cluster.stats.counter("remote_accesses") == 1
        dram = cluster.network.config.dram_access_us
        hits = 200  # ~17 us of debt: longer than the sibling's fault
        t0 = cluster.engine.now
        cluster.run_all([
            blade.run_thread(pid, [(page, False)], model),
            blade.run_thread(pid, [(warm, False)] * hits + [(page, False)], model),
        ])
        assert cluster.stats.counter("remote_accesses") == 2
        assert cluster.engine.now - t0 == pytest.approx((hits + 1) * dram)

    def test_tso_write_blocks_thread(self, cluster):
        """Under TSO a write fault's full latency lands on the thread."""
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        t0 = cluster.engine.now
        cluster.run_process(
            blade.run_thread(pid, [(base, True)], ConsistencyModel.TSO)
        )
        assert cluster.engine.now - t0 > 5.0  # full remote fault

    def test_pso_write_is_asynchronous(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        trace = [(base + i * PAGE_SIZE, True) for i in range(8)]
        t_tso_cluster = small_cluster()
        pid2, base2 = setup_proc(t_tso_cluster)
        blade2 = t_tso_cluster.compute_blades[0]
        trace2 = [(base2 + i * PAGE_SIZE, True) for i in range(8)]
        t_tso_cluster.run_process(
            blade2.run_thread(pid2, trace2, ConsistencyModel.TSO)
        )
        tso_time = t_tso_cluster.engine.now
        cluster.run_process(
            blade.run_thread(pid, trace, ConsistencyModel.PSO)
        )
        pso_time = cluster.engine.now
        # PSO overlaps the 8 write faults; TSO serializes them.
        assert pso_time < 0.5 * tso_time

    def test_pso_read_after_write_waits(self, cluster):
        """PSO blocks a read to a page whose write is still in flight, so
        the value read must be the written one."""
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]

        def writer_then_reader():
            yield from blade.run_thread(
                pid, [(base, True), (base, False)], ConsistencyModel.PSO
            )
            data = yield from blade.load_bytes(pid, base, 4)
            return data

        cluster.run_process(writer_then_reader())
        # The page is present and writable after the drain.
        assert blade.cache.peek(base) is not None

    def test_pso_store_buffer_bounded(self, cluster):
        pid, base = setup_proc(cluster)
        blade = cluster.compute_blades[0]
        trace = [(base + i * PAGE_SIZE, True) for i in range(100)]
        count = cluster.run_process(
            blade.run_thread(
                pid, trace, ConsistencyModel.PSO, store_buffer_capacity=4
            )
        )
        assert count == 100
        # All writes landed by drain time.
        assert cluster.stats.counter("remote_accesses") == 100

    def test_steal_time_charged_to_threads(self, cluster):
        """TLB shootdowns at a blade slow down that blade's threads."""
        pid, base = setup_proc(cluster)
        b0, b1 = cluster.compute_blades
        cluster.run_process(b0.ensure_page(pid, base, True))
        # Long local-only trace on blade 0 while blade 1 steals the page.
        local = [(base + PAGE_SIZE, False)] * 10
        cluster.run_process(b0.ensure_page(pid, base + PAGE_SIZE, False))

        def contender():
            yield from b1.ensure_page(pid, base, True)

        t0 = cluster.engine.now
        cluster.run_all([b0.run_thread(pid, local * 100), contender()])
        assert b0.steal_time_us > 0
