"""Seeded randomized invariant suite run against every allocator policy.

Every policy must uphold the same contract under arbitrary churn: live
allocations never overlap, byte accounting conserves the blade size, and
draining restores one maximal hole.
"""

import random

import pytest

from repro.alloc import POLICIES, AllocatorPolicy, OutOfMemoryError, make_policy
from repro.sim.network import PAGE_SIZE

BLADE_BASE = 1 << 30
BLADE_SIZE = 1 << 24  # pow2 so a drained policy's largest_hole == size

ALL_POLICIES = sorted(POLICIES)


def churn(policy: AllocatorPolicy, seed: int, ops: int = 500):
    """Drive a policy through seeded mixed-size churn; returns live bases."""
    rng = random.Random(seed)
    live = []
    for i in range(ops):
        if live and (rng.random() < 0.45 or len(live) > 100):
            base = live.pop(rng.randrange(len(live)))
            policy.free(base)
        else:
            length = rng.randrange(200, 150_000)
            padded = policy.padded_size(length)
            alignment = policy.alignment_for(padded)
            try:
                base = policy.allocate(
                    padded, alignment, requested=length, owner=rng.randrange(4)
                )
            except OutOfMemoryError:
                continue
            live.append(base)
    return live


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestPolicyInvariants:
    def test_live_allocations_never_overlap(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        churn(policy, seed=11)
        spans = sorted(
            (base, base + length)
            for base, length in policy.live_allocations().items()
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2, f"{name}: [{s1:#x},{e1:#x}) overlaps [{s2:#x},{e2:#x})"
        for start, end in spans:
            assert BLADE_BASE <= start < end <= BLADE_BASE + BLADE_SIZE

    def test_byte_accounting_conserved(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        churn(policy, seed=23)
        assert (
            policy.allocated_bytes + policy.free_bytes + policy.waste_bytes
            == BLADE_SIZE
        )
        assert policy.allocated_bytes == sum(policy.live_allocations().values())
        assert 0 <= policy.external_fragmentation() <= 1
        assert 0 <= policy.internal_fragmentation() <= 1
        assert policy.largest_hole <= policy.free_bytes
        assert policy.metadata_bytes() > 0

    def test_drain_restores_single_maximal_hole(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        live = churn(policy, seed=37)
        for base in live:
            policy.free(base)
        assert policy.allocated_bytes == 0
        assert policy.waste_bytes == 0
        assert policy.free_bytes == BLADE_SIZE
        assert policy.largest_hole == BLADE_SIZE
        assert policy.external_fragmentation() == 0.0

    def test_free_unknown_base_raises(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        with pytest.raises(KeyError, match="no allocation"):
            policy.free(BLADE_BASE + PAGE_SIZE)

    def test_invalid_requests_rejected(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        with pytest.raises(ValueError):
            policy.allocate(0, PAGE_SIZE)
        with pytest.raises(ValueError):
            policy.allocate(PAGE_SIZE, 3)

    def test_exhaustion_raises_oom(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        with pytest.raises(OutOfMemoryError):
            for _ in range(2 * BLADE_SIZE // PAGE_SIZE):
                padded = policy.padded_size(BLADE_SIZE // 4)
                policy.allocate(padded, policy.alignment_for(padded))

    def test_steps_accumulate(self, name):
        policy = make_policy(name, BLADE_BASE, BLADE_SIZE)
        padded = policy.padded_size(PAGE_SIZE)
        policy.allocate(padded, policy.alignment_for(padded))
        assert policy.last_op_steps >= 1
        assert policy.total_ops == 1
        assert policy.total_steps == policy.last_op_steps


def test_registry_names_match_classes():
    for name, cls in POLICIES.items():
        assert cls.name == name
    assert set(POLICIES) == {"first-fit", "slab", "buddy", "arena", "bump"}


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown allocator policy"):
        make_policy("tlsf", 0, BLADE_SIZE)


def test_bump_retires_interior_frees_and_resets_when_empty():
    from repro.alloc import BumpAllocator

    bump = BumpAllocator(0, BLADE_SIZE)
    a = bump.allocate(PAGE_SIZE, PAGE_SIZE)
    b = bump.allocate(PAGE_SIZE, PAGE_SIZE)
    bump.free(a)  # interior: retired, not reusable
    assert bump.waste_bytes == PAGE_SIZE
    bump.free(b)  # drained: epoch reset reclaims the retired bytes
    assert bump.waste_bytes == 0
    assert bump.largest_hole == BLADE_SIZE


def test_arena_per_owner_isolation_and_trim():
    from repro.alloc import ArenaAllocator

    arena = ArenaAllocator(0, BLADE_SIZE)
    a = arena.allocate(PAGE_SIZE, PAGE_SIZE, owner=1)
    b = arena.allocate(PAGE_SIZE, PAGE_SIZE, owner=2)
    assert arena.arena_count() == 2
    arena.free(a)
    assert arena.arena_count() == 1  # owner 1's arena trimmed to reserve
    arena.free(b)
    assert arena.arena_count() == 0
    assert arena.largest_hole == BLADE_SIZE


def test_slab_size_classes_are_finer_than_pow2():
    from repro.alloc import SlabAllocator

    # 3-page request: pow2 padding would burn 4 pages, the slab class 3.
    assert SlabAllocator.padded_size(3 * PAGE_SIZE) == 3 * PAGE_SIZE
    assert SlabAllocator.padded_size(5 * PAGE_SIZE) == 6 * PAGE_SIZE
    assert SlabAllocator.padded_size(PAGE_SIZE) == PAGE_SIZE
