"""Model-based protocol invariant checks.

After *any* interleaving of reads and writes, the global state of the rack
must satisfy the MSI/MOESI safety invariants.  Hypothesis drives random op
sequences; after every operation we sweep all blades and the switch
directory and assert:

- **Single writer**: a page is writable in at most one blade's cache, and
  only when its region is Modified with that blade as owner.
- **Directory soundness**: any blade caching a page of a region appears in
  that region's sharer list (or is its owner).
- **Dirty data locatable**: a dirty cached page implies its region is in a
  dirty-capable state (M/O) at that owner, or a write-back is in flight.
- **PTE/cache agreement**: a PTE for a page implies the page is resident.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.directory import CoherenceState
from repro.sim.network import PAGE_SIZE

from conftest import small_cluster

I, S, M, O = (
    CoherenceState.INVALID,
    CoherenceState.SHARED,
    CoherenceState.MODIFIED,
    CoherenceState.OWNED,
)

ops_strategy = st.lists(
    st.tuples(
        st.integers(0, 2),   # blade
        st.integers(0, 7),   # page
        st.booleans(),       # write?
    ),
    min_size=1,
    max_size=30,
)


def check_invariants(cluster, base, num_pages):
    directory = cluster.mmu.directory
    for page_idx in range(num_pages):
        va = base + page_idx * PAGE_SIZE
        region = directory.find(va)
        holders = []
        writable_holders = []
        for blade in cluster.compute_blades:
            page = blade.cache.peek(va)
            if page is None:
                continue
            holders.append(blade)
            if page.writable:
                writable_holders.append(blade)
            # A resident page is mapped by some domain (the test never
            # revokes a grant, the only path that leaves a page unmapped).
            assert page.domains, (
                f"page {va:#x} resident on blade {blade.blade_id} w/o PTE"
            )
        # Single writer, and only the region's owner.
        assert len(writable_holders) <= 1, f"page {va:#x} writable twice"
        if writable_holders:
            assert region is not None
            assert region.state is M, (
                f"writable page {va:#x} but region state {region.state}"
            )
            assert region.owner == writable_holders[0].port.port_id
        # Directory soundness: every holder is known to the directory.
        if holders:
            assert region is not None, f"page {va:#x} cached w/o region"
            for blade in holders:
                pid = blade.port.port_id
                assert pid in region.sharers or region.owner == pid, (
                    f"blade {blade.blade_id} caches {va:#x} but is not "
                    f"tracked by region {region.base:#x} ({region.state})"
                )
        # Dirty data locatable.
        for blade in holders:
            page = blade.cache.peek(va)
            if page.dirty:
                assert region.state in (M, O), (
                    f"dirty page {va:#x} in region state {region.state}"
                )


def _run_ops(protocol, ops):
    cluster = small_cluster(
        num_compute=3, cache_pages=16, protocol=protocol, directory_capacity=64
    )
    ctl = cluster.controller
    task = ctl.sys_exec("inv")
    base = ctl.sys_mmap(task.pid, 8 * PAGE_SIZE)
    for blade_idx, page_idx, write in ops:
        blade = cluster.compute_blades[blade_idx]
        va = base + page_idx * PAGE_SIZE
        cluster.run_process(blade.ensure_page(task.pid, va, write))
        check_invariants(cluster, base, 8)
    return cluster


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_msi_invariants(ops):
    _run_ops("msi", ops)


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_moesi_invariants(ops):
    _run_ops("moesi", ops)


@given(ops=ops_strategy)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_invariants_hold_under_concurrency(ops):
    """Same invariants when all ops run concurrently instead of serially
    (checked only at quiescence -- transients are serialized per region)."""
    cluster = small_cluster(num_compute=3, cache_pages=16, directory_capacity=64)
    ctl = cluster.controller
    task = ctl.sys_exec("inv")
    base = ctl.sys_mmap(task.pid, 8 * PAGE_SIZE)
    gens = [
        cluster.compute_blades[b].ensure_page(
            task.pid, base + p * PAGE_SIZE, w
        )
        for b, p, w in ops
    ]
    cluster.run_all(gens)
    cluster.run(until=cluster.engine.now + 1_000)  # drain async flushes
    check_invariants(cluster, base, 8)
