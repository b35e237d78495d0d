"""Behavioural tests for the MOESI extension (Section 8, implemented).

The point of MOESI over MSI: a read stealing a Modified region leaves the
dirty data at its owner (state Owned), is served cache-to-cache in one
network phase, and avoids the memory write-back entirely.
"""

import pytest

from repro.core.directory import CoherenceState
from repro.core.stt import (
    RequesterRole,
    TransitionAction,
    build_moesi_stt,
    stt_size,
)
from repro.switchsim.packets import AccessType

from conftest import lose_first_attempt, small_cluster

I, S, M, O = (
    CoherenceState.INVALID,
    CoherenceState.SHARED,
    CoherenceState.MODIFIED,
    CoherenceState.OWNED,
)
R, W = AccessType.READ, AccessType.WRITE
NONE, SHARER, OWNER = RequesterRole.NONE, RequesterRole.SHARER, RequesterRole.OWNER


def moesi_cluster(num_compute=3):
    return small_cluster(num_compute=num_compute, cache_pages=256, protocol="moesi")


def setup_proc(cluster, length=1 << 16):
    ctl = cluster.controller
    task = ctl.sys_exec("t")
    return task.pid, ctl.sys_mmap(task.pid, length)


def touch(cluster, blade_idx, pid, va, write):
    blade = cluster.compute_blades[blade_idx]
    return cluster.run_process(blade.ensure_page(pid, va, write))


class TestSttTable:
    def test_still_small(self):
        assert stt_size(build_moesi_stt()) < 40  # "tens of states" (Sec 8)

    def test_read_steal_keeps_owner(self):
        stt = build_moesi_stt()
        t = stt[(M, R, NONE)]
        assert t.next_state is O
        assert t.action is TransitionAction.FETCH_FROM_OWNER

    def test_owner_upgrade_is_local(self):
        stt = build_moesi_stt()
        t = stt[(O, W, OWNER)]
        assert t.next_state is M
        assert t.action is TransitionAction.LOCAL_UPGRADE

    def test_write_steal_still_two_phase(self):
        stt = build_moesi_stt()
        t = stt[(O, W, NONE)]
        assert t.action is TransitionAction.INVALIDATE_OWNER_THEN_FETCH


class TestProtocolBehaviour:
    def test_read_steal_enters_owned(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=False)
        region = cluster.mmu.directory.find(base)
        assert region.state is O
        assert region.owner == cluster.compute_blades[0].port.port_id
        assert len(region.sharers) == 2

    def test_owner_keeps_dirty_data_unflushed(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        b0 = cluster.compute_blades[0]
        cluster.run_process(b0.store_bytes(pid, base, b"dirty"))
        touch(cluster, 1, pid, base, write=False)  # M->O
        page = b0.cache.peek(base)
        assert page is not None and page.dirty and not page.writable
        assert cluster.stats.counter("flushed_pages") == 0
        assert cluster.stats.counter("cache_to_cache_transfers") == 1

    def test_reader_sees_owner_bytes(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        b0, b1, b2 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"owner-bytes"))
        got = cluster.run_process(b1.load_bytes(pid, base, 11))
        assert got == b"owner-bytes"
        got2 = cluster.run_process(b2.load_bytes(pid, base, 11))
        assert got2 == b"owner-bytes"
        assert cluster.stats.counter("cache_to_cache_transfers") == 2

    def test_owner_local_upgrade_invalidates_readers(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        b0, b1, _b2 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"v1"))
        touch(cluster, 1, pid, base, write=False)  # M->O, b1 reads
        cluster.run_process(b0.store_bytes(pid, base, b"v2"))  # O->M local
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert region.owner == b0.port.port_id
        assert b1.cache.peek(base) is None
        # And the new value is visible everywhere.
        assert cluster.run_process(b1.load_bytes(pid, base, 2)) == b"v2"

    def test_write_steal_from_owned(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        b0, b1, b2 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"old"))
        touch(cluster, 1, pid, base, write=False)  # M->O
        cluster.run_process(b2.store_bytes(pid, base, b"new"))  # O->M steal
        region = cluster.mmu.directory.find(base)
        assert region.state is M and region.owner == b2.port.port_id
        assert b0.cache.peek(base) is None  # old owner dropped + flushed
        assert cluster.run_process(b0.load_bytes(pid, base, 3)) == b"new"

    def test_owner_eviction_falls_back_to_memory(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster, length=1 << 21)
        b0, b1, _b2 = cluster.compute_blades
        cluster.run_process(b0.store_bytes(pid, base, b"evictme"))
        touch(cluster, 1, pid, base, write=False)  # M->O, dirty at b0
        # Thrash b0's cache so the dirty Owned page is evicted (flushes).
        from repro.sim.network import PAGE_SIZE

        for i in range(1, b0.cache.capacity_pages + 4):
            cluster.run_process(b0.ensure_page(pid, base + i * PAGE_SIZE, False))
        assert b0.cache.peek(base) is None
        # A new reader must still get the right bytes (from memory now).
        got = cluster.run_process(
            cluster.compute_blades[2].load_bytes(pid, base, 7)
        )
        assert got == b"evictme"

    def test_moesi_read_steal_faster_than_msi(self):
        """The headline: M->O beats MSI's M->S latency."""
        moesi = moesi_cluster()
        pid_o, base_o = setup_proc(moesi)
        touch(moesi, 0, pid_o, base_o, write=True)
        touch(moesi, 1, pid_o, base_o, write=False)
        msi = small_cluster(num_compute=3, cache_pages=256)
        pid_m, base_m = setup_proc(msi)
        touch(msi, 0, pid_m, base_m, write=True)
        touch(msi, 1, pid_m, base_m, write=False)
        m_to_o = moesi.stats.mean_latency("fault:M->O")
        m_to_s = msi.stats.mean_latency("fault:M->S")
        assert m_to_o < 0.9 * m_to_s

    def test_i_to_e_like_mesi(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=False)
        region = cluster.mmu.directory.find(base)
        assert region.state is M  # E encoded as clean-exclusive M


class TestMoesiUnderMessageLoss:
    """FETCH_FROM_OWNER and LOCAL_UPGRADE across a lossy link: the retry
    must fold idempotently -- exactly one state transition and one
    cache-to-cache transfer, never a double-apply."""

    @staticmethod
    def dropped(cluster, port, direction):
        return getattr(cluster.network.port(port), direction).packets_dropped

    def test_fetch_from_owner_retries_fold_idempotently(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        cluster.run_process(
            cluster.compute_blades[0].store_bytes(pid, base, b"dirty")
        )
        lose_first_attempt(cluster, "compute0", "from_switch")
        touch(cluster, 1, pid, base, write=False)  # M->O under loss
        assert self.dropped(cluster, "compute0", "from_switch") == 1
        assert cluster.stats.counter("retransmissions") == 1
        region = cluster.mmu.directory.find(base)
        b0, b1 = cluster.compute_blades[0], cluster.compute_blades[1]
        # Exactly one transition: M->O once, owner keeps the dirty line.
        assert region.state is O
        assert region.owner == b0.port.port_id
        assert b1.port.port_id in region.sharers
        assert cluster.stats.counter("cache_to_cache_transfers") == 1
        assert len(cluster.stats.latencies["fault:M->O"]) == 1
        # The reader got the owner's bytes despite the drops.
        got = cluster.run_process(b1.load_bytes(pid, base, 5))
        assert got == b"dirty"

    def test_fetch_from_owner_survives_dropped_acks(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        lose_first_attempt(cluster, "compute0", "to_switch")
        touch(cluster, 1, pid, base, write=False)
        assert self.dropped(cluster, "compute0", "to_switch") == 1
        assert cluster.stats.counter("retransmissions") == 1
        region = cluster.mmu.directory.find(base)
        assert region.state is O
        assert cluster.stats.counter("cache_to_cache_transfers") == 1

    def test_local_upgrade_retries_fold_idempotently(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)  # M at b0
        touch(cluster, 1, pid, base, write=False)  # M->O, b1 shares
        lose_first_attempt(cluster, "compute1", "from_switch")
        touch(cluster, 0, pid, base, write=True)  # O->M local upgrade
        assert self.dropped(cluster, "compute1", "from_switch") == 1
        assert cluster.stats.counter("retransmissions") == 1
        region = cluster.mmu.directory.find(base)
        b0, b1 = cluster.compute_blades[0], cluster.compute_blades[1]
        # Exactly one upgrade: owner unchanged, sharer set emptied once.
        assert region.state is M
        assert region.owner == b0.port.port_id
        assert region.sharers == {b0.port.port_id}
        assert len(cluster.stats.latencies["fault:O->M"]) == 1
        # The sharer's copy is gone -- the duplicate delivery did not
        # resurrect or double-drop it.
        assert b1.cache.peek(base) is None

    def test_local_upgrade_no_double_transition_on_dropped_ack(self):
        cluster = moesi_cluster()
        pid, base = setup_proc(cluster)
        touch(cluster, 0, pid, base, write=True)
        touch(cluster, 1, pid, base, write=False)
        lose_first_attempt(cluster, "compute1", "to_switch")
        touch(cluster, 0, pid, base, write=True)
        assert self.dropped(cluster, "compute1", "to_switch") == 1
        region = cluster.mmu.directory.find(base)
        assert region.state is M
        assert len(cluster.stats.latencies["fault:O->M"]) == 1
        assert cluster.stats.counter("resets") == 0
