"""DataPath unit tests: flush/fetch ordering and the async write-back map.

The class at the bottom covers flush completions racing ``begin_outage``:
a landed write-back leaves the map whether or not the fail-over gate is
closed, because every reader of the map skips a landed entry anyway.
"""

from repro.sim.network import PAGE_SIZE

from conftest import small_cluster


def setup_proc(cluster, length=1 << 16):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


class TestFlushFetchOrdering:
    def test_fetch_waits_for_inflight_flush(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        fresh = bytes([7]) * PAGE_SIZE
        coherence.flush_page_async(port0, base, fresh)
        # A read fault racing the flush must be served *after* it lands.
        cluster.run_process(
            cluster.compute_blades[1].ensure_page(pid, base, write=False)
        )
        page = cluster.compute_blades[1].cache.peek(base)
        assert bytes(page.data) == fresh

    def test_entry_cleared_after_landing(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        landed = coherence.flush_page_async(port0, base, b"\0" * PAGE_SIZE)
        assert base in coherence.pending_flushes
        cluster.engine.run()
        assert landed.triggered
        assert base not in coherence.pending_flushes

    def test_drain_writebacks_waits_all(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        events = [
            coherence.flush_page_async(
                port0, base + i * PAGE_SIZE, b"\0" * PAGE_SIZE
            )
            for i in range(3)
        ]
        cluster.run_process(coherence.drain_writebacks())
        assert all(ev.triggered for ev in events)

    def test_drain_writebacks_range_filtered(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        inside = coherence.flush_page_async(port0, base, b"\0" * PAGE_SIZE)
        coherence.flush_page_async(
            port0, base + 64 * PAGE_SIZE, b"\0" * PAGE_SIZE
        )
        cluster.run_process(coherence.drain_writebacks(base, PAGE_SIZE))
        assert inside.triggered


class TestOutageRace:
    """Flush completion racing ``begin_outage``."""

    def test_completion_during_outage_clears_entry(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        landed = coherence.flush_page_async(port0, base, b"\1" * PAGE_SIZE)
        # The primary crashes while the flush is in flight.
        coherence.begin_outage()
        cluster.engine.run()
        # The payload landed, so nothing needs to wait on the entry.
        assert landed.triggered
        assert base not in coherence.pending_flushes

    def test_requiesce_after_outage_clears_entry(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        coherence.flush_page_async(port0, base, b"\1" * PAGE_SIZE)
        coherence.begin_outage()
        cluster.engine.run()
        coherence.end_outage()
        # A write-back issued after recovery clears normally too.
        refreshed = coherence.flush_page_async(port0, base, b"\2" * PAGE_SIZE)
        cluster.engine.run()
        assert refreshed.triggered
        assert base not in coherence.pending_flushes

    def test_normal_path_unaffected(self):
        cluster = small_cluster()
        pid, base = setup_proc(cluster)
        coherence = cluster.mmu.coherence
        port0 = cluster.compute_blades[0].port
        coherence.flush_page_async(port0, base, b"\1" * PAGE_SIZE)
        cluster.engine.run()
        assert base not in coherence.pending_flushes
