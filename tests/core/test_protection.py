"""Unit tests for domain-based memory protection."""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.protection import KEY_WIDTH, PDID_WIDTH, ProtectionTable, pack_key
from repro.core.vma import PermissionClass, Vma
from repro.switchsim.packets import AccessType, PacketVerdict
from repro.switchsim.tcam import (
    Tcam,
    TcamFullError,
    VA_WIDTH,
    prefix_mask,
    split_range_to_pow2,
)

RW = PermissionClass.READ_WRITE
RO = PermissionClass.READ_ONLY
PAGE = 0x1000


@pytest.fixture
def table():
    return ProtectionTable(Tcam(256))


def grant(table, pdid, base, length, perm=RW):
    return table.grant(pdid, Vma(base, length, pdid, perm), perm)


class TestPackKey:
    def test_pdid_in_high_bits(self):
        key = pack_key(3, 0x1234)
        assert key >> VA_WIDTH == 3
        assert key & ((1 << VA_WIDTH) - 1) == 0x1234

    def test_bounds(self):
        with pytest.raises(ValueError):
            pack_key(1 << PDID_WIDTH, 0)
        with pytest.raises(ValueError):
            pack_key(0, 1 << VA_WIDTH)


class TestGrantCheck:
    def test_allow_within_vma(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        assert table.check(1, 0x10800, AccessType.READ) is PacketVerdict.ALLOW
        assert table.check(1, 0x10800, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_reject_outside_vma(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        assert (
            table.check(1, 0x11000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_reject_other_domain(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        assert (
            table.check(2, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_read_only_rejects_write(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RO)
        assert table.check(1, 0x10000, AccessType.READ) is PacketVerdict.ALLOW
        assert (
            table.check(1, 0x10000, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )

    def test_none_rejects_everything(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=PermissionClass.NONE)
        assert (
            table.check(1, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_PERMISSION
        )

    def test_pow2_vma_is_single_entry(self, table):
        n = grant(table, pdid=1, base=0x10000, length=0x10000)
        assert n == 1

    def test_arbitrary_vma_splits_bounded(self, table):
        import math

        length = 0x7000  # not a power of two
        n = grant(table, pdid=1, base=0x10000, length=length)
        assert n <= 2 * math.ceil(math.log2(length))
        # Every page of the vma is still covered.
        for off in range(0, length, 0x1000):
            assert table.check(1, 0x10000 + off, AccessType.READ) is PacketVerdict.ALLOW

    def test_two_domains_same_region(self, table):
        """Capability-style: one vma shared read-write/read-only."""
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RW)
        table.grant(2, Vma(0x10000, 0x1000, 2, RO), RO)
        assert table.check(1, 0x10000, AccessType.WRITE) is PacketVerdict.ALLOW
        assert (
            table.check(2, 0x10000, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )
        assert table.check(2, 0x10000, AccessType.READ) is PacketVerdict.ALLOW

    def test_duplicate_grant_rejected(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        with pytest.raises(ValueError):
            grant(table, pdid=1, base=0x10000, length=0x1000)


class TestRevokeChange:
    def test_revoke_removes_access(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        table.revoke(1, 0x10000)
        assert (
            table.check(1, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )
        assert len(table) == 0

    def test_revoke_unknown_rejected(self, table):
        with pytest.raises(KeyError):
            table.revoke(1, 0x999)

    def test_revoke_only_named_domain(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        table.grant(2, Vma(0x10000, 0x1000, 2, RO), RO)
        table.revoke(2, 0x10000)
        assert table.check(1, 0x10000, AccessType.READ) is PacketVerdict.ALLOW
        assert (
            table.check(2, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )

    def test_change_permission(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RW)
        table.change(1, Vma(0x10000, 0x1000, 1, RO), RO)
        assert (
            table.check(1, 0x10000, AccessType.WRITE)
            is PacketVerdict.REJECT_PERMISSION
        )


class TestCoalescing:
    def test_adjacent_same_domain_same_perm_coalesce(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        before = len(table)
        grant(table, pdid=1, base=0x11000, length=0x1000)
        # Buddies with equal <pdid, perm> merge into one entry.
        assert len(table) <= before + 1 - 1 + 1  # merged down
        assert len(table) == 1
        assert table.check(1, 0x11800, AccessType.WRITE) is PacketVerdict.ALLOW

    def test_different_perms_do_not_coalesce(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000, perm=RW)
        grant(table, pdid=1, base=0x11000, length=0x1000, perm=RO)
        assert len(table) == 2

    def test_different_domains_do_not_coalesce(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        grant(table, pdid=2, base=0x11000, length=0x1000)
        assert len(table) == 2

    def test_revoke_after_coalesce_removes_coverage(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        grant(table, pdid=1, base=0x11000, length=0x1000)
        table.revoke(1, 0x10000)
        # The merged entry covered both grants; revoking the first removes
        # it (the control plane re-grants survivors in practice).
        assert (
            table.check(1, 0x10000, AccessType.READ)
            is PacketVerdict.REJECT_NO_ENTRY
        )


class TestAccounting:
    def test_check_and_rejection_counters(self, table):
        grant(table, pdid=1, base=0x10000, length=0x1000)
        table.check(1, 0x10000, AccessType.READ)
        table.check(1, 0x99000, AccessType.READ)
        assert table.checks == 2
        assert table.rejections == 1

    def test_capacity_pressure_raises(self):
        table = ProtectionTable(Tcam(2))
        table.grant(1, Vma(0x0, 0x1000, 1, RW), RW)
        table.grant(2, Vma(0x1000, 0x1000, 2, RW), RW)
        with pytest.raises(TcamFullError):
            table.grant(3, Vma(0x2000, 0x1000, 3, RW), RW)


def _verdicts(table, pdids, pages):
    return [
        table.check(pdid, page * PAGE, access)
        for pdid in pdids
        for page in pages
        for access in (AccessType.READ, AccessType.WRITE)
    ]


class TestAllOrNothing:
    @pytest.fixture
    def table4(self):
        """A 4-rule table holding pdid 1's pages 0-3 (one coalesced rule)
        and pdid 2's pages 0x10 and 0x20."""
        table = ProtectionTable(Tcam(4))
        for page in range(4):
            grant(table, pdid=1, base=page * PAGE, length=PAGE)
        grant(table, pdid=2, base=0x10000, length=PAGE)
        grant(table, pdid=2, base=0x20000, length=PAGE)
        assert len(table) == 3
        return table

    def test_grant_fits_when_its_coalesced_rules_fit(self, table4):
        # Five uncoalesced prefixes, but only two coalesced rules.
        assert grant(table4, pdid=1, base=0x8000, length=PAGE) == 2
        assert len(table4) == 4
        for page in (0x0, 0x1, 0x2, 0x3, 0x8):
            assert table4.check(1, page * PAGE, AccessType.WRITE) is PacketVerdict.ALLOW
        assert table4.check(1, 0x4000, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY

    def test_refused_update_changes_nothing(self, table4):
        grant(table4, pdid=1, base=0x8000, length=PAGE)
        pages = range(0x22)
        before = (table4.grants(), len(table4), _verdicts(table4, (1, 2), pages))
        with pytest.raises(TcamFullError):
            grant(table4, pdid=1, base=0xA000, length=PAGE)
        assert (table4.grants(), len(table4), _verdicts(table4, (1, 2), pages)) == before
        # Splitting the coalesced run [0, 4) needs more rules than are free.
        with pytest.raises(TcamFullError):
            table4.revoke(1, 0x1000)
        with pytest.raises(TcamFullError):
            table4.change(1, Vma(0x2000, PAGE, 1, RO), RO)
        assert (table4.grants(), len(table4), _verdicts(table4, (1, 2), pages)) == before

    def test_overlapping_grant_and_resized_change_are_refused(self, table):
        grant(table, pdid=1, base=0x10000, length=4 * PAGE)
        before = (table.grants(), _rule_set(table.tcam))
        with pytest.raises(ValueError, match="overlaps"):
            grant(table, pdid=1, base=0x12000, length=4 * PAGE)
        with pytest.raises(ValueError, match="extent"):
            table.change(1, Vma(0x10000, PAGE, 1, RO), RO)
        assert (table.grants(), _rule_set(table.tcam)) == before
        # Another domain may hold the same range.
        grant(table, pdid=2, base=0x12000, length=4 * PAGE)

    @pytest.mark.parametrize(
        "pdid, base",
        [(1 << PDID_WIDTH, 0x20000), (1, (1 << VA_WIDTH) - PAGE)],
        ids=["pdid", "va-end"],
    )
    def test_out_of_range_grant_is_not_recorded(self, table, pdid, base):
        grant(table, pdid=1, base=0x10000, length=PAGE)
        before = (table.grants(), len(table))
        vma = Vma(base, 2 * PAGE, pdid, RW)
        for _attempt in range(2):
            with pytest.raises(ValueError, match="does not fit"):
                table.grant(pdid, vma, RW)
            assert (table.grants(), len(table)) == before


def _reference_rules(grants):
    """The rule multiset of inserting every grant's prefixes and then
    coalescing buddies to fixpoint."""
    ref = Tcam(1 << 20)
    pdid_mask = prefix_mask(PDID_WIDTH, PDID_WIDTH) << VA_WIDTH
    for pdid, vma, perm in grants:
        for base, size in split_range_to_pow2(vma.base, vma.length):
            prefix_len = VA_WIDTH - (size.bit_length() - 1)
            ref.insert(
                pack_key(pdid, base),
                pdid_mask | prefix_mask(prefix_len, VA_WIDTH),
                PDID_WIDTH + prefix_len,
                (pdid, perm),
            )
    ref.coalesce(width=KEY_WIDTH)
    return _rule_set(ref)


def _rule_set(tcam):
    return Counter((e.value, e.mask, e.priority, e.data) for e in tcam)


WINDOW_PAGES = 24
MAX_PAGES = 6
PDIDS = (1, 2, 3, 4)

_ops = st.lists(
    st.tuples(
        st.sampled_from(["grant", "revoke", "change"]),
        st.sampled_from(PDIDS),
        st.integers(min_value=0, max_value=WINDOW_PAGES - 1),
        st.integers(min_value=1, max_value=MAX_PAGES),
        st.sampled_from(list(PermissionClass)),
    ),
    min_size=10,
    max_size=50,
)


class TestCompiledRules:
    @given(ops=_ops, capacity=st.one_of(st.integers(3, 12), st.none()))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_matches_coalesce_fixpoint(self, ops, capacity):
        """Random disjoint grant/revoke/change sequences: the table always
        holds exactly the coalesced fixpoint of its grants, every granted
        page checks to its permission and no other page matches, and a
        refused update changes nothing -- and is refused only when the
        fixpoint does not fit."""
        table = ProtectionTable(Tcam(capacity or 1 << 20))
        model = {}  # (pdid, base) -> (vma, perm)
        for kind, pdid, page, pages, perm in ops:
            mine = sorted(base for p, base in model if p == pdid)
            after = dict(model)
            if kind == "grant":
                vma = Vma(page * PAGE, pages * PAGE, pdid, perm)
                if any(model[pdid, base][0].overlaps(vma) for base in mine):
                    continue
                after[pdid, vma.base] = (vma, perm)
            elif mine:
                vma = model[pdid, mine[page % len(mine)]][0].with_perm(perm)
                if kind == "revoke":
                    del after[pdid, vma.base]
                else:
                    after[pdid, vma.base] = (vma, perm)
            else:
                continue
            before = (table.grants(), _rule_set(table.tcam))
            try:
                if kind == "grant":
                    table.grant(pdid, vma, perm)
                elif kind == "revoke":
                    table.revoke(pdid, vma.base)
                else:
                    table.change(pdid, vma, perm)
            except TcamFullError:
                assert (table.grants(), _rule_set(table.tcam)) == before
                refused = [(p, *after[p, base]) for p, base in after]
                assert sum(_reference_rules(refused).values()) > table.tcam.capacity
                continue
            model = after
            grants = [(p, *model[p, base]) for p, base in sorted(model)]
            assert table.grants() == grants
            assert _rule_set(table.tcam) == _reference_rules(grants)
            for p in PDIDS:
                for va in range(0, (WINDOW_PAGES + MAX_PAGES) * PAGE, PAGE):
                    key = pack_key(p, va)
                    hits = [e.data for e in table.tcam if e.matches(key)]
                    assert hits == [
                        (p, g_perm)
                        for g_pdid, g_vma, g_perm in grants
                        if g_pdid == p and g_vma.contains(va)
                    ]


class TestUpdateWork:
    """An update hands the TCAM only the runs it changes, however many
    grants the domain holds."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """pdid 1 holds 64 one-page grants with a page gap after each;
        returns the table and the ``(old, rules)`` count of every
        ``Tcam.replace`` made after that."""
        table = ProtectionTable(Tcam(1024))
        for i in range(64):
            grant(table, pdid=1, base=2 * i * PAGE, length=PAGE)
        calls = []
        replace = table.tcam.replace

        def spy(old, rules):
            calls.append((len(old), len(rules)))
            return replace(old, rules)

        monkeypatch.setattr(table.tcam, "replace", spy)
        return table, calls

    def test_grant_and_revoke_of_a_lone_vma(self, spied):
        table, calls = spied
        grant(table, pdid=1, base=128 * PAGE, length=PAGE)
        table.revoke(1, 128 * PAGE)
        assert calls == [(0, 1), (1, 0)]
        assert len(table) == 64

    def test_merge_split_and_mprotect_touch_only_neighbours(self, spied):
        table, calls = spied
        # Page 1 bridges pages 0 and 2: three runs become [0, 3 pages).
        grant(table, pdid=1, base=PAGE, length=PAGE)
        # Read-only page 1 splits it back into three runs.
        table.change(1, Vma(PAGE, PAGE, 1, RO), RO)
        # Read-write again merges them.
        table.change(1, Vma(PAGE, PAGE, 1, RW), RW)
        # Revoking page 1 splits the run in two.
        table.revoke(1, PAGE)
        # A same-class mprotect changes no rule.
        table.change(1, Vma(4 * PAGE, PAGE, 1, RW), RW)
        assert calls == [(2, 2), (2, 3), (3, 2), (2, 2), (0, 0)]
        assert len(table) == 64


def _check_fixpoint(table, model):
    grants = [(p, *model[p, base]) for p, base in sorted(model)]
    assert table.grants() == grants
    assert _rule_set(table.tcam) == _reference_rules(grants)


class TestScale:
    def test_seeded_long_runs_match_coalesce_fixpoint(self):
        """A bump-style heap: 64 contiguous read-write grants form one long
        run, a capability domain shares every third of them read-only,
        then seeded revokes, re-grants and mprotects split and merge the
        runs.  After every op the table holds exactly the coalesced
        fixpoint of its grants."""
        rng = random.Random(21)
        table = ProtectionTable(Tcam(1 << 16))
        model = {}  # (pdid, base) -> (vma, perm)
        heap = []
        cursor = 0x40000
        for _ in range(64):
            vma = Vma(cursor, rng.choice((1, 1, 2, 3, 4)) * PAGE, 1, RW)
            cursor = vma.end
            table.grant(1, vma, RW)
            model[1, vma.base] = (vma, RW)
            heap.append(vma)
            _check_fixpoint(table, model)
        assert len(table) <= 2 * 48
        for vma in heap[::3]:
            table.grant(9, vma.with_perm(RO), RO)
            model[9, vma.base] = (vma.with_perm(RO), RO)
            _check_fixpoint(table, model)
        perms = list(PermissionClass)
        for _ in range(160):
            pdid = rng.choice((1, 1, 1, 9))
            vma = rng.choice(heap)
            held = model.get((pdid, vma.base))
            perm = rng.choice(perms)
            if held is None:
                table.grant(pdid, vma.with_perm(perm), perm)
                model[pdid, vma.base] = (vma.with_perm(perm), perm)
            elif rng.random() < 0.4:
                table.revoke(pdid, vma.base)
                del model[pdid, vma.base]
            else:
                table.change(pdid, vma.with_perm(perm), perm)
                model[pdid, vma.base] = (vma.with_perm(perm), perm)
            _check_fixpoint(table, model)
        for vma in heap:
            table.revoke_all(vma.base)
        assert len(table) == 0 and table.grants() == []
