"""Domain-based memory protection (Section 4.2).

Protection is decoupled from translation: a separate data-plane table maps
``<PDID, vma> -> permission class``, checked in parallel with the rest of
the pipeline via TCAM range matches.  Protection domains (PDIDs) identify
*who* may touch a region -- the PID for unmodified applications, or
finer-grained domains (e.g. one per client session) for capability-style
use.  Because TCAM entries can only match power-of-two ranges, arbitrary
vmas are decomposed into at most ``ceil(log2 s)`` prefix entries, and
adjacent entries with the same ``<PDID, PC>`` are coalesced.

The TCAM key packs the PDID in the high bits above the 48-bit VA so one
ternary match covers both fields, as the switch's parallel range match does.

Each domain keeps its installed entries grouped by coalesced *run*: a
maximal stretch of adjacent grants with equal permission.  An update
recompiles only the runs it changes -- a grant merges with at most the
equal-permission run on each side, a revoke splits its run into at most
two, an mprotect does both -- so its cost does not grow with the domain.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..switchsim.packets import AccessType, PacketVerdict
from ..switchsim.tcam import Tcam, TcamEntry, VA_WIDTH, split_range_to_pow2
from .vma import PermissionClass, Vma

#: Width of the PDID field packed above the VA in the TCAM key.
PDID_WIDTH = 16
KEY_WIDTH = VA_WIDTH + PDID_WIDTH
#: All key bits; a rule's mask clears the low VA bits its block spans.
_KEY_MASK = (1 << KEY_WIDTH) - 1

#: A compiled protection rule: ``(value, mask, priority, (pdid, perm))``.
_Rule = Tuple[int, int, int, Tuple[int, PermissionClass]]
#: A coalesced run: ``(base, end, perm)``.
_Span = Tuple[int, int, PermissionClass]
#: An installed run: its span and the TCAM entries compiled from it.
_Run = Tuple[int, int, PermissionClass, List[TcamEntry]]
#: One grant to set: ``(pdid, vma, perm)``, where ``perm=None`` revokes it.
_Change = Tuple[int, Vma, Optional[PermissionClass]]


class GrantExistsError(ValueError):
    """The domain already holds a grant on the vma."""


def pack_key(pdid: int, va: int) -> int:
    """Pack ``(pdid, va)`` into a single TCAM key."""
    pdid, va = int(pdid), int(va)  # tolerate numpy integer inputs
    if not 0 <= pdid < (1 << PDID_WIDTH):
        raise ValueError(f"pdid {pdid} does not fit in {PDID_WIDTH} bits")
    if not 0 <= va < (1 << VA_WIDTH):
        raise ValueError(f"va {va:#x} does not fit in {VA_WIDTH} bits")
    return (pdid << VA_WIDTH) | va


def _compile_run(pdid: int, base: int, end: int, perm: PermissionClass) -> List[_Rule]:
    """The run ``[base, end)`` of ``pdid`` as TCAM rules: its maximal
    aligned power-of-two blocks, the fixpoint :meth:`Tcam.coalesce` reaches
    by merging buddies."""
    key = int(pdid) << VA_WIDTH
    data = (pdid, perm)
    rules: List[_Rule] = []
    for block, size in split_range_to_pow2(base, end - base):
        # Exact match on PDID bits + VA prefix.
        shift = size.bit_length() - 1
        rules.append((key | block, _KEY_MASK ^ (size - 1), KEY_WIDTH - shift, data))
    return rules


class _Domain:
    """One protection domain: its grants and their installed runs."""

    __slots__ = ("grants", "starts", "runs", "rules")

    def __init__(self) -> None:
        # vma.base -> (vma, perm): the authoritative grants.
        self.grants: Dict[int, Tuple[Vma, PermissionClass]] = {}
        # The runs sorted by base; ``starts[i]`` is ``runs[i]``'s base.
        self.starts: List[int] = []
        self.runs: List[_Run] = []
        self.rules = 0  # TCAM entries over all runs

    def overlaps(self, base: int, end: int) -> bool:
        """Whether a grant already covers part of ``[base, end)``."""
        i = bisect_left(self.starts, end) - 1  # the last run starting before end
        return i >= 0 and self.runs[i][1] > base

    def respan(
        self, base: int, end: int, perm: Optional[PermissionClass]
    ) -> Tuple[int, int, List[_Span]]:
        """Plan setting ``[base, end)`` to ``perm`` (``None``: ungranted).

        Returns ``(lo, hi, spans)``: ``runs[lo:hi]`` are the runs that
        change and ``spans`` the runs replacing them.  Only runs that
        overlap or touch ``[base, end)`` can change: the first keeps its
        part left of ``base``, the last its part right of ``end``, and
        either merges with ``[base, end)`` on equal permission.  A run
        that comes out as it was keeps its entries.
        """
        starts, runs = self.starts, self.runs
        lo = bisect_left(starts, base)
        if lo and runs[lo - 1][1] >= base:
            lo -= 1
        hi = bisect_right(starts, end, lo)
        if lo == hi:
            return lo, hi, [(base, end, perm)] if perm is not None else []
        spans: List[_Span] = []
        rb, re, rp, _entries = runs[lo]
        if rb < base:
            spans.append((rb, re if re < base else base, rp))
        if perm is not None:
            if spans and spans[-1][1] == base and spans[-1][2] is perm:
                spans[-1] = (spans[-1][0], end, perm)
            else:
                spans.append((base, end, perm))
        rb, re, rp, _entries = runs[hi - 1]
        if re > end:
            if spans and spans[-1][1] == end and spans[-1][2] is rp:
                spans[-1] = (spans[-1][0], re, rp)
            else:
                spans.append((rb if rb > end else end, re, rp))
        if spans and spans[0] == runs[lo][:3]:
            lo += 1
            del spans[0]
        if spans and lo < hi and spans[-1] == runs[hi - 1][:3]:
            hi -= 1
            del spans[-1]
        return lo, hi, spans


class ProtectionTable:
    """The ``<PDID, vma> -> PC`` table in switch TCAM.

    The control plane keeps the authoritative ``<pdid, vma> -> perm`` map;
    the TCAM holds its compiled form, grouped per domain into coalesced
    runs.  Each run compiles to its maximal aligned power-of-two blocks,
    so the table always holds the fixpoint :meth:`Tcam.coalesce` reaches
    by merging buddies.  An update swaps exactly the changed runs' entries
    for the new runs' rules in one all-or-nothing TCAM update: revocation
    stays correct even when a coalesced entry spanned several vmas, and a
    refused update leaves grants, runs and rules as they were.  One update
    costs O(log runs + entries of the runs it changes), whatever the size
    of the domain.  A domain's grants never overlap (each is a distinct
    allocator vma), so a key matches at most one rule.
    """

    def __init__(self, tcam: Tcam):
        self.tcam = tcam
        self._domains: Dict[int, _Domain] = {}
        self.checks = 0
        self.rejections = 0

    def __len__(self) -> int:
        return len(self.tcam)

    # -- rule management (control plane) -----------------------------------

    def grant(self, pdid: int, vma: Vma, perm: PermissionClass) -> int:
        """Install permission entries for ``<pdid, vma>``.

        Returns the number of TCAM entries now covering this domain.
        """
        # A VA past the field would spill into the PDID bits of a rule.
        pack_key(pdid, vma.base)
        pack_key(pdid, vma.end - 1)
        domain = self._domains.get(pdid)
        if domain is not None:
            if vma.base in domain.grants:
                raise GrantExistsError(
                    f"protection for pdid={pdid} vma@{vma.base:#x} already granted"
                )
            if domain.overlaps(vma.base, vma.end):
                raise ValueError(
                    f"vma@{vma.base:#x} overlaps a grant of pdid={pdid}"
                )
        self._update([(pdid, vma, perm)])
        return self._domains[pdid].rules

    def grants(self) -> List[Tuple[int, Vma, PermissionClass]]:
        """The authoritative grant list, sorted: ``(pdid, vma, perm)``.

        Includes both owner grants (installed by ``mmap``) and
        capability-style domain grants (``grant_domain``), which the
        per-task vma lists alone miss.
        """
        return [
            (pdid, vma, perm)
            for pdid, domain in sorted(self._domains.items())
            for _base, (vma, perm) in sorted(domain.grants.items())
        ]

    def revoke(self, pdid: int, vma_base: int) -> None:
        """Remove the grant for ``<pdid, vma>`` (``revoke_domain`` path)."""
        vma, _perm = self._grant(pdid, vma_base)
        self._update([(pdid, vma, None)])

    def revoke_all(self, vma_base: int) -> None:
        """Remove every domain's grant on the vma at ``vma_base`` -- the
        owner's and each capability grant -- in one update (munmap path).

        A grant left behind would let its domain read whoever is mapped
        at that VA next.
        """
        self._update([
            (pdid, domain.grants[vma_base][0], None)
            for pdid, domain in self._domains.items()
            if vma_base in domain.grants
        ])

    def change(self, pdid: int, vma: Vma, perm: PermissionClass) -> None:
        """mprotect: replace the grant with the new permission class."""
        granted, _perm = self._grant(pdid, vma.base)
        if granted.end != vma.end:
            raise ValueError(f"mprotect keeps the extent of vma@{vma.base:#x}")
        self._update([(pdid, vma, perm)])

    def _grant(self, pdid: int, vma_base: int) -> Tuple[Vma, PermissionClass]:
        domain = self._domains.get(pdid)
        if domain is None or vma_base not in domain.grants:
            raise KeyError(f"no protection entries for pdid={pdid} @ {vma_base:#x}")
        return domain.grants[vma_base]

    def _update(self, changes: Sequence[_Change]) -> None:
        """Set each ``(pdid, vma, perm)`` of ``changes`` -- at most one per
        domain; ``perm=None`` revokes -- in one TCAM update that swaps only
        the runs the changes touch.

        Raises :class:`TcamFullError`, changing nothing, when the new runs'
        rules do not fit beside every other rule.
        """
        plans = []
        old: List[TcamEntry] = []
        rules: List[_Rule] = []
        for pdid, vma, perm in changes:
            domain = self._domains.get(pdid) or _Domain()
            lo, hi, spans = domain.respan(vma.base, vma.end, perm)
            cuts = []  # where each span's rules end in ``rules``
            for span in spans:
                rules += _compile_run(pdid, *span)
                cuts.append(len(rules))
            gone = len(old)
            for run in domain.runs[lo:hi]:
                old += run[3]
            plans.append((pdid, domain, vma, perm, lo, hi, spans, cuts, len(old) - gone))
        entries = self.tcam.replace(old, rules)
        at = 0
        for pdid, domain, vma, perm, lo, hi, spans, cuts, gone in plans:
            runs: List[_Run] = []
            domain.rules -= gone
            for (base, end, run_perm), cut in zip(spans, cuts):
                runs.append((base, end, run_perm, entries[at:cut]))
                domain.rules += cut - at
                at = cut
            domain.runs[lo:hi] = runs
            domain.starts[lo:hi] = [span[0] for span in spans]
            if perm is None:
                del domain.grants[vma.base]
            else:
                domain.grants[vma.base] = (vma, perm)
            if domain.grants:
                self._domains[pdid] = domain
            else:
                del self._domains[pdid]

    # -- data-plane check ---------------------------------------------------

    def check(self, pdid: int, va: int, access: AccessType) -> PacketVerdict:
        """The per-request protection check performed in the data plane."""
        self.checks += 1
        entry = self.tcam.lookup(pack_key(pdid, va))
        if entry is None:
            self.rejections += 1
            return PacketVerdict.REJECT_NO_ENTRY
        _pdid, perm = entry.data
        allowed = perm.allows_write() if access.is_write else perm.allows_read()
        if not allowed:
            self.rejections += 1
            return PacketVerdict.REJECT_PERMISSION
        return PacketVerdict.ALLOW
