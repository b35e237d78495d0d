"""Unit and property tests for the TCAM model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switchsim.tcam import (
    Tcam,
    TcamEntry,
    TcamFullError,
    VA_WIDTH,
    block_to_prefix,
    prefix_mask,
    split_range_to_pow2,
)


class TestPrefixMath:
    def test_prefix_mask_full(self):
        assert prefix_mask(VA_WIDTH) == (1 << VA_WIDTH) - 1

    def test_prefix_mask_zero(self):
        assert prefix_mask(0) == 0

    def test_prefix_mask_top_bits(self):
        mask = prefix_mask(8, width=16)
        assert mask == 0xFF00

    def test_prefix_mask_out_of_range(self):
        with pytest.raises(ValueError):
            prefix_mask(17, width=16)
        with pytest.raises(ValueError):
            prefix_mask(-1)

    def test_block_to_prefix_round_trip(self):
        value, mask = block_to_prefix(0x4000, 0x1000)
        assert value == 0x4000
        # All addresses in the block match; neighbours do not.
        assert (0x4FFF & mask) == value
        assert (0x5000 & mask) != value

    def test_block_to_prefix_requires_pow2(self):
        with pytest.raises(ValueError):
            block_to_prefix(0, 3000)

    def test_block_to_prefix_requires_alignment(self):
        with pytest.raises(ValueError):
            block_to_prefix(0x800, 0x1000)


class TestSplitRange:
    def test_aligned_pow2_single_block(self):
        assert split_range_to_pow2(0x10000, 0x1000) == [(0x10000, 0x1000)]

    def test_unaligned_range_decomposes(self):
        blocks = split_range_to_pow2(0x1000, 0x3000)
        assert sum(size for _b, size in blocks) == 0x3000
        for base, size in blocks:
            assert size & (size - 1) == 0
            assert base % size == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_range_to_pow2(0, 0)
        with pytest.raises(ValueError):
            split_range_to_pow2(-1, 10)

    @given(
        base=st.integers(min_value=0, max_value=2**40),
        length=st.integers(min_value=1, max_value=2**24),
    )
    @settings(max_examples=200)
    def test_property_blocks_tile_the_range_exactly(self, base, length):
        blocks = split_range_to_pow2(base, length)
        cursor = base
        for b, size in blocks:
            assert b == cursor, "blocks must be contiguous"
            assert size > 0 and size & (size - 1) == 0, "power-of-two sizes"
            assert b % size == 0, "natural alignment"
            cursor += size
        assert cursor == base + length, "blocks cover exactly the range"

    @given(
        base=st.integers(min_value=0, max_value=2**40),
        exp=st.integers(min_value=0, max_value=20),
    )
    def test_property_aligned_pow2_is_one_block(self, base, exp):
        size = 1 << exp
        aligned = base - (base % size)
        assert split_range_to_pow2(aligned, size) == [(aligned, size)]


class TestTcam:
    def test_insert_and_exact_lookup(self):
        tcam = Tcam(16)
        tcam.insert_prefix(0x1000, 0x1000, "data")
        hit = tcam.lookup(0x1ABC)
        assert hit is not None and hit.data == "data"
        assert tcam.lookup(0x2000) is None

    def test_longest_prefix_match_wins(self):
        tcam = Tcam(16)
        tcam.insert_prefix(0x0, 1 << 20, "coarse")
        tcam.insert_prefix(0x4000, 0x1000, "fine")
        assert tcam.lookup(0x4100).data == "fine"
        assert tcam.lookup(0x9000).data == "coarse"

    def test_lpm_insertion_order_irrelevant(self):
        tcam = Tcam(16)
        tcam.insert_prefix(0x4000, 0x1000, "fine")
        tcam.insert_prefix(0x0, 1 << 20, "coarse")
        assert tcam.lookup(0x4100).data == "fine"

    def test_capacity_enforced(self):
        tcam = Tcam(2)
        tcam.insert_prefix(0x0, 0x1000, 1)
        tcam.insert_prefix(0x1000, 0x1000, 2)
        with pytest.raises(TcamFullError):
            tcam.insert_prefix(0x2000, 0x1000, 3)

    def test_insert_range_all_or_nothing(self):
        tcam = Tcam(2)
        # 0x3000 range needs 2 entries; add 1 first so it cannot fit.
        tcam.insert_prefix(0x100000, 0x1000, "x")
        with pytest.raises(TcamFullError):
            tcam.insert_range(0x1000, 0x3000, "y")
        assert len(tcam) == 1

    def test_insert_range_entry_bound(self):
        """A range of size s needs at most ~2*log2(s) prefix entries."""
        tcam = Tcam(200)
        entries = tcam.insert_range(0x1234000, 0x7F000, "z")
        import math

        assert len(entries) <= 2 * math.ceil(math.log2(0x7F000))

    def test_remove_entry(self):
        tcam = Tcam(4)
        entry = tcam.insert_prefix(0x0, 0x1000, "a")
        tcam.remove(entry)
        assert tcam.lookup(0x500) is None
        assert tcam.free == 4

    def test_replace_is_all_or_nothing(self):
        tcam = Tcam(3)
        a = tcam.insert_prefix(0x0, 0x1000, "a")
        b = tcam.insert_prefix(0x1000, 0x1000, "b")
        mask = prefix_mask(VA_WIDTH - 12)
        rules = [(0x4000, mask, VA_WIDTH - 12, "c"), (0x5000, mask, VA_WIDTH - 12, "c")]
        # Two new rules fit only once ``a`` is gone: the swap is one update.
        new = tcam.replace([a], rules)
        assert [e.data for e in new] == ["c", "c"]
        assert len(tcam) == 3 and tcam.lookup(0x0) is None
        assert tcam.lookup(0x1800) is b and tcam.lookup(0x5800) is new[1]
        # Three rules in place of one leave no room: nothing changes.
        before = list(tcam)
        with pytest.raises(TcamFullError):
            tcam.replace([b], rules + [(0x6000, mask, VA_WIDTH - 12, "c")])
        assert list(tcam) == before

    def test_replace_rejects_value_outside_mask(self):
        tcam = Tcam(4)
        a = tcam.insert_prefix(0x0, 0x1000, "a")
        with pytest.raises(ValueError):
            tcam.replace([a], [(0x1000, 0x1000, 1, "b"), (0xFF, 0xF0, 1, "c")])
        assert list(tcam) == [a]

    def test_replace_refuses_unknown_or_repeated_old_entries(self):
        tcam = Tcam(4)
        a = tcam.insert_prefix(0x0, 0x1000, "a")
        b = tcam.insert_prefix(0x1000, 0x1000, "b")
        # Equal to ``a`` field by field, but never installed.
        stranger = TcamEntry(a.value, a.mask, a.priority, a.data)
        rule = (0x2000, prefix_mask(VA_WIDTH - 12), VA_WIDTH - 12, "c")
        for old in ([stranger], [b, stranger], [a, a], [b, a, b]):
            with pytest.raises(ValueError):
                tcam.replace(old, [rule])
            assert [id(e) for e in tcam] == [id(a), id(b)]
        with pytest.raises(ValueError):
            tcam.remove(stranger)
        assert [id(e) for e in tcam] == [id(a), id(b)]

    def test_equal_priority_ties_go_to_the_latest_insert(self):
        """Longest-prefix match breaks ties by recency, across ``insert``,
        ``replace`` and ``remove``."""
        tcam = Tcam(8)
        mask = prefix_mask(VA_WIDTH - 12)
        first = tcam.insert_prefix(0x0, 0x1000, "first")
        second = tcam.insert_prefix(0x0, 0x1000, "second")
        assert tcam.lookup(0x10) is second
        [third] = tcam.replace([], [(0x0, mask, VA_WIDTH - 12, "third")])
        assert tcam.lookup(0x10) is third
        # Replacing an older entry ranks its successor as the latest.
        [fourth] = tcam.replace([first], [(0x0, mask, VA_WIDTH - 12, "fourth")])
        assert tcam.lookup(0x10) is fourth
        tcam.remove(fourth)
        assert tcam.lookup(0x10) is third
        tcam.remove(third)
        assert tcam.lookup(0x10) is second
        later = tcam.insert_prefix(0x0, 0x1000, "later")
        assert tcam.lookup(0x10) is later
        # A longer prefix still beats every more recent shorter one.
        fine = tcam.insert_prefix(0x0, 0x100, "fine")
        tcam.insert_prefix(0x0, 0x1000, "latest")
        assert tcam.lookup(0x10) is fine

    def test_value_outside_mask_rejected(self):
        tcam = Tcam(4)
        with pytest.raises(ValueError):
            tcam.insert(value=0xFF, mask=0xF0, priority=1, data=None)

    def test_coalesce_merges_buddies(self):
        tcam = Tcam(8)
        tcam.insert_prefix(0x0, 0x1000, "same")
        tcam.insert_prefix(0x1000, 0x1000, "same")
        assert tcam.coalesce() == 1
        assert len(tcam) == 1
        assert tcam.lookup(0x1800).data == "same"

    def test_coalesce_runs_to_fixpoint(self):
        tcam = Tcam(8)
        for i in range(4):
            tcam.insert_prefix(i * 0x1000, 0x1000, "same")
        tcam.coalesce()
        assert len(tcam) == 1
        assert tcam.lookup(0x3FFF).data == "same"

    def test_coalesce_respects_different_data(self):
        tcam = Tcam(8)
        tcam.insert_prefix(0x0, 0x1000, "a")
        tcam.insert_prefix(0x1000, 0x1000, "b")
        assert tcam.coalesce() == 0
        assert len(tcam) == 2

    def test_coalesce_non_buddies_not_merged(self):
        tcam = Tcam(8)
        # 0x1000 and 0x2000 are not buddies (buddy of 0x1000/0x1000 is 0x0).
        tcam.insert_prefix(0x1000, 0x1000, "a")
        tcam.insert_prefix(0x2000, 0x1000, "a")
        assert tcam.coalesce() == 0

    def test_lookup_counts(self):
        tcam = Tcam(4)
        tcam.lookup(0)
        tcam.lookup(1)
        assert tcam.lookups == 2

    @given(
        exp=st.integers(min_value=12, max_value=24),
        base_block=st.integers(min_value=0, max_value=2**20),
        offset=st.integers(min_value=0, max_value=2**24 - 1),
    )
    @settings(max_examples=100)
    def test_property_prefix_matches_exactly_its_block(self, exp, base_block, offset):
        size = 1 << exp
        base = base_block * size
        if base + size > (1 << VA_WIDTH):
            return
        tcam = Tcam(4)
        tcam.insert_prefix(base, size, "d")
        inside = base + (offset % size)
        assert tcam.lookup(inside) is not None
        outside = (base + size + offset) % (1 << VA_WIDTH)
        if not (base <= outside < base + size):
            assert tcam.lookup(outside) is None
