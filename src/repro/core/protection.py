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
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..switchsim.packets import AccessType, PacketVerdict
from ..switchsim.tcam import (
    Tcam,
    TcamEntry,
    VA_WIDTH,
    prefix_mask,
    split_range_to_pow2,
)
from .vma import PermissionClass, Vma

#: Width of the PDID field packed above the VA in the TCAM key.
PDID_WIDTH = 16
KEY_WIDTH = VA_WIDTH + PDID_WIDTH
#: Key bits of the PDID field, matched exactly by every protection rule.
_PDID_MASK = ((1 << PDID_WIDTH) - 1) << VA_WIDTH

#: A compiled protection rule: ``(value, mask, priority, (pdid, perm))``.
_Rule = Tuple[int, int, int, Tuple[int, PermissionClass]]


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


class ProtectionTable:
    """The ``<PDID, vma> -> PC`` table in switch TCAM.

    The control plane keeps the authoritative ``<pdid, vma> -> perm`` map;
    the TCAM holds its compiled form.  Every rule change recompiles the
    affected domain straight to its coalesced rules: adjacent grants with
    equal permission merge into runs, and each run becomes its maximal
    aligned power-of-two blocks -- the fixpoint :meth:`Tcam.coalesce`
    reaches by merging buddies.  The new rules replace the domain's old
    ones in one all-or-nothing TCAM update, so revocation stays correct
    even when a coalesced entry spanned several vmas, and a refused update
    leaves grants and rules as they were.  A domain's grants never overlap
    (each is a distinct allocator vma), so a key matches at most one rule.
    """

    def __init__(self, tcam: Tcam):
        self.tcam = tcam
        # pdid -> vma.base -> (vma, perm): the authoritative grants.
        self._grants: Dict[int, Dict[int, Tuple[Vma, PermissionClass]]] = {}
        # pdid -> the TCAM entries compiled from that domain's grants.
        self._rules: Dict[int, List[TcamEntry]] = {}
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
        domain = self._grants.get(pdid, {})
        if vma.base in domain:
            raise GrantExistsError(
                f"protection for pdid={pdid} vma@{vma.base:#x} already granted"
            )
        self._install({pdid: {**domain, vma.base: (vma, perm)}})
        return len(self._rules[pdid])

    def grants(self) -> List[Tuple[int, Vma, PermissionClass]]:
        """The authoritative grant list, sorted: ``(pdid, vma, perm)``.

        Includes both owner grants (installed by ``mmap``) and
        capability-style domain grants (``grant_domain``), which the
        per-task vma lists alone miss.
        """
        return [
            (pdid, vma, perm)
            for pdid, domain in sorted(self._grants.items())
            for _base, (vma, perm) in sorted(domain.items())
        ]

    def revoke(self, pdid: int, vma_base: int) -> None:
        """Remove the grant for ``<pdid, vma>`` (``revoke_domain`` path)."""
        domain = dict(self._grants.get(pdid, {}))
        if domain.pop(vma_base, None) is None:
            raise KeyError(f"no protection entries for pdid={pdid} @ {vma_base:#x}")
        self._install({pdid: domain})

    def revoke_all(self, vma_base: int) -> None:
        """Remove every domain's grant on the vma at ``vma_base`` -- the
        owner's and each capability grant -- in one update (munmap path).

        A grant left behind would let its domain read whoever is mapped
        at that VA next.
        """
        domains = {}
        for pdid, domain in self._grants.items():
            if vma_base in domain:
                kept = dict(domain)
                del kept[vma_base]
                domains[pdid] = kept
        self._install(domains)

    def change(self, pdid: int, vma: Vma, perm: PermissionClass) -> None:
        """mprotect: replace the grant with the new permission class."""
        domain = self._grants.get(pdid, {})
        if vma.base not in domain:
            raise KeyError(f"no protection entries for pdid={pdid} @ {vma.base:#x}")
        self._install({pdid: {**domain, vma.base: (vma, perm)}})

    def _install(
        self, domains: Dict[int, Dict[int, Tuple[Vma, PermissionClass]]]
    ) -> None:
        """Install each ``pdid -> grants`` of ``domains``, compiled to
        coalesced rules, in place of those domains' rules in one TCAM
        update.

        Raises :class:`TcamFullError`, changing nothing, when the rules do
        not fit beside the other domains' rules.
        """
        old: List[TcamEntry] = []
        rules: List[_Rule] = []
        ends = []
        for pdid, domain in domains.items():
            old += self._rules.get(pdid, ())
            rules += self._compile(pdid, domain)
            ends.append(len(rules))
        entries = self.tcam.replace(old, rules)
        start = 0
        for (pdid, domain), end in zip(domains.items(), ends):
            if domain:
                self._grants[pdid] = domain
                self._rules[pdid] = entries[start:end]
            else:
                self._grants.pop(pdid, None)
                self._rules.pop(pdid, None)
            start = end

    @staticmethod
    def _compile(
        pdid: int, domain: Dict[int, Tuple[Vma, PermissionClass]]
    ) -> List[_Rule]:
        """``domain``'s grants as coalesced TCAM rules."""
        # (base, end, perm) of each run of adjacent grants with equal perm.
        runs: List[Tuple[int, int, PermissionClass]] = []
        for base in sorted(domain):
            vma, perm = domain[base]
            if runs and runs[-1][1] == base and runs[-1][2] == perm:
                runs[-1] = (runs[-1][0], vma.end, perm)
            else:
                runs.append((base, vma.end, perm))
        key = pack_key(pdid, 0)
        rules: List[_Rule] = []
        for base, end, perm in runs:
            data = (pdid, perm)
            for block, size in split_range_to_pow2(base, end - base):
                # Exact match on PDID bits + VA prefix.
                shift = size.bit_length() - 1
                mask = _PDID_MASK | prefix_mask(VA_WIDTH - shift, VA_WIDTH)
                rules.append((key | block, mask, KEY_WIDTH - shift, data))
        return rules

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
