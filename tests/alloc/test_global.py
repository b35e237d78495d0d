"""GlobalAllocator: placement order, cost accounting, SRAM banking."""

import copy
import random

import pytest

from repro.alloc import (
    AllocCostModel,
    GlobalAllocator,
    OutOfMemoryError,
    alloc_gauges,
)
from repro.sim.network import PAGE_SIZE
from repro.switchsim.sram import MetadataSram

from conftest import small_cluster

BLADE_SIZE = 1 << 22


def make_global(policy="first-fit", blades=4, blade_size=BLADE_SIZE, **kw):
    galloc = GlobalAllocator(policy=policy, **kw)
    for b in range(blades):
        galloc.add_blade(b, b << 30, blade_size)
    return galloc


def brute_force_order(galloc):
    """Blade ids by ``(allocated_bytes, blade_id)``, read from outside."""
    loads = galloc.allocated_per_blade()
    return sorted(loads, key=lambda b: (loads[b], b))


def fits(policy, length):
    """Whether ``policy`` could place a ``length``-byte request now."""
    trial = copy.deepcopy(policy)
    padded = trial.padded_size(length)
    try:
        trial.allocate(padded, trial.alignment_for(padded), requested=length)
    except OutOfMemoryError:
        return False
    return True


class TestIncrementalOrdering:
    @pytest.mark.parametrize("policy", ["first-fit", "slab", "buddy"])
    def test_order_matches_brute_force_under_churn(self, policy):
        """Every allocation lands on the first blade, in brute-force
        order as read before the call, that can fit it."""
        galloc = make_global(policy, blade_size=1 << 20)
        rng = random.Random(7)
        live = []
        skipped_ahead = 0
        for _ in range(400):
            if live and rng.random() < 0.4:
                bid, base = live.pop(rng.randrange(len(live)))
                galloc.free(bid, base)
                continue
            length = rng.randrange(300, 100_000)
            order = brute_force_order(galloc)
            fitting = [b for b in order if fits(galloc.blade(b), length)]
            try:
                p = galloc.allocate(length)
            except OutOfMemoryError:
                assert not fitting
                continue
            assert p.blade_id == fitting[0]
            skipped_ahead += fitting[0] != order[0]
            live.append((p.blade_id, p.va_base))
        # The churn filled blades, so some placements probed past the
        # least-allocated blade.
        assert skipped_ahead > 0

    def test_migration_shadow_counts_in_placement_and_sram(self):
        cluster = small_cluster(num_compute=2, num_memory=2, allocator="slab")
        mmu, ctl = cluster.mmu, cluster.controller
        task = ctl.sys_exec("app")
        big = ctl.sys_mmap(task.pid, 4 * PAGE_SIZE)
        small = ctl.sys_mmap(task.pid, PAGE_SIZE)
        src = mmu.address_space.translate(big).blade_id
        dst = mmu.address_space.translate(small).blade_id
        assert src != dst
        record = cluster.run_process(
            mmu.migration.migrate_range(big, 4 * PAGE_SIZE, dst)
        )
        assert record.dst_shadow_va in mmu.allocator.blade(dst).live_allocations()
        # The shadow's metadata is banked like any other allocation's.
        galloc = mmu.allocator
        footprint = sum(galloc.blade(b).metadata_bytes() for b in galloc.blade_ids)
        assert mmu.alloc_metadata_sram.used == footprint
        # The destination now holds the small vma plus the 4-page shadow,
        # more than the source's 4-page range, so placement avoids it.
        loads = mmu.allocator.allocated_per_blade()
        assert loads[dst] > loads[src]
        base = ctl.sys_mmap(task.pid, PAGE_SIZE)
        assert mmu.address_space.translate(base).blade_id == src

    def test_allocate_at_keeps_order_fresh(self):
        galloc = make_global()
        galloc.allocate_at(1, (1 << 30) + PAGE_SIZE, PAGE_SIZE)
        assert brute_force_order(galloc) == [0, 2, 3, 1]
        placed = [galloc.allocate(PAGE_SIZE).blade_id for _ in range(3)]
        assert placed == [0, 2, 3]

    def test_remove_blade_drops_from_order(self):
        galloc = make_global()
        galloc.remove_blade(1)
        assert galloc.blade_ids == [0, 2, 3]
        placed = {galloc.allocate(PAGE_SIZE).blade_id for _ in range(6)}
        assert placed == {0, 2, 3}

    def test_duplicate_blade_rejected(self):
        galloc = make_global()
        with pytest.raises(ValueError, match="already registered"):
            galloc.add_blade(0, 0, BLADE_SIZE)


class TestCostModel:
    def test_unmodeled_by_default(self):
        galloc = make_global()
        assert not galloc.modeled
        galloc.allocate(PAGE_SIZE)
        assert galloc.last_cost_us == 0.0

    def test_modeled_cost_is_affine_in_steps(self):
        model = AllocCostModel(base_us=2.0, per_step_us=0.5)
        galloc = make_global(cost_model=model)
        assert galloc.modeled
        placement = galloc.allocate(PAGE_SIZE)
        steps = galloc.blade(placement.blade_id).last_op_steps
        assert placement.cost_us == galloc.last_cost_us == 2.0 + 0.5 * steps

    def test_enomem_charges_full_probe_scan(self):
        galloc = make_global(cost_model=AllocCostModel(), blades=2)
        with pytest.raises(OutOfMemoryError):
            galloc.allocate(2 * BLADE_SIZE)
        assert galloc.enomem_count == 1
        assert galloc.last_cost_us == AllocCostModel().cost_us(2)

    def test_identical_sequences_identical_costs(self):
        def run():
            galloc = make_global("slab", cost_model=AllocCostModel())
            costs = []
            for i in range(50):
                costs.append(galloc.allocate(1000 * (i + 1)).cost_us)
            return costs

        assert run() == run()

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown allocator policy"):
            GlobalAllocator(policy="tlsf")


class TestMetadataSram:
    def test_occupancy_tracks_allocator_metadata(self):
        sram = MetadataSram(1 << 20)
        galloc = make_global(
            "slab", cost_model=AllocCostModel(), metadata_sram=sram
        )
        assert sram.used == galloc.raw_telemetry()["metadata"]
        p = galloc.allocate(3 * PAGE_SIZE)
        assert sram.used == galloc.raw_telemetry()["metadata"]
        assert sram.peak_used >= sram.used
        galloc.free(p.blade_id, p.va_base)
        assert sram.used == galloc.raw_telemetry()["metadata"]

    def test_overflow_counted_once_per_crossing(self):
        sram = MetadataSram(16)
        sram.set_used(10)
        assert sram.overflows == 0
        sram.set_used(20)
        sram.set_used(24)  # still over budget: same crossing
        assert sram.overflows == 1
        sram.set_used(8)
        sram.set_used(32)
        assert sram.overflows == 2
        assert sram.peak_used == 32

    def test_rejects_empty_bank(self):
        with pytest.raises(ValueError):
            MetadataSram(0)


class TestGauges:
    def test_gauges_merge_across_allocators(self):
        a = make_global("first-fit", cost_model=AllocCostModel())
        b = make_global("first-fit", cost_model=AllocCostModel())
        a.allocate(PAGE_SIZE)
        b.allocate(PAGE_SIZE)
        merged = alloc_gauges([a.raw_telemetry(), b.raw_telemetry()])
        assert merged["alloc:allocated_bytes"] == 2 * PAGE_SIZE
        solo = alloc_gauges([a.raw_telemetry()])
        # Fractions recompute from the summed bytes, not averaged.
        assert merged["alloc:frag:internal"] == solo["alloc:frag:internal"]

    def test_jain_fairness_stays_near_one(self):
        galloc = make_global()
        for _ in range(16):
            galloc.allocate(PAGE_SIZE)
        assert galloc.jain_fairness() == pytest.approx(1.0)
