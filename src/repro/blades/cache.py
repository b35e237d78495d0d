"""Compute-blade DRAM page cache and its per-domain local PTEs.

Under partial disaggregation each compute blade keeps a few GB of local
DRAM used exclusively as a *cache* of remote pages (Section 2.1).  The
implementation mirrors the paper's description of their LegoOS-style cache
with coherence support (Section 6.1): pages are cached at 4 KB granularity
with per-page permissions, a region invalidation flushes exactly the dirty
pages it covers, and capacity misses evict LRU.

While MIND hides disaggregation from applications, each compute blade still
runs a local page table mapping MIND virtual addresses to local DRAM frames
for cached pages (footnote 2 of the paper).  Crucially the local mapping is
*per protection domain*: the blade cache stores permissions for cached
pages (Section 3.2), so a page cached on behalf of one domain is not
implicitly accessible to another -- a different domain's first access must
fault to the switch, where the protection table arbitrates.  Each
:class:`CachedPage` therefore carries its PTEs, one writable flag per
domain, so residency, recency, the dirty bit and every domain's permission
live in one store and a PTE cannot outlive its page.

An invalidation that unmaps a page or write-protects its PTEs forces a
*synchronous TLB shootdown*, which the paper measures at several
microseconds and identifies as a main component of invalidation latency
(Fig. 7 right, citing LATR); :meth:`PageCache.invalidate_region` counts the
PTEs it shoots down so the blade can price the shootdown.

Payloads are copy-on-write, as a kernel that receives a fetched page
straight into the application page copies nothing (Section 6.1).  A fill
stores ``bytes(data)``: the fetched ``bytes`` object itself, shared with
the memory blade that returned it (``ZERO_PAGE`` for a page never
written), or a private immutable copy of a caller's ``bytearray``.  Only
the compute blade's first store to a page turns its payload into a
private ``bytearray`` (:meth:`~repro.blades.compute.ComputeBlade.store_bytes`).
Sharing is safe because ``bytes`` cannot be mutated; a ``bytearray`` is
never shared.  A trace replay, which never stores bytes, holds no
per-page buffer at all.

Callers without protection domains (the baselines) use domain 0.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..sim.network import PAGE_SIZE
from ..core.vma import align_down


@dataclass
class CachedPage:
    """One resident page: payload, dirty bit and its domains' PTEs."""

    va: int
    #: shared immutable ``bytes`` until the blade's first store gives the
    #: page a private ``bytearray``; None when payloads are disabled.
    data: Union[bytes, bytearray, None]
    #: the local PTEs: protection domain -> writable.
    domains: Dict[int, bool]
    dirty: bool = False

    @property
    def writable(self) -> bool:
        """True if some domain maps the page writable."""
        return any(self.domains.values())


@dataclass
class InvalidationOutcome:
    """What a region invalidation did to this cache (for the ACK)."""

    flushed: List[CachedPage] = field(default_factory=list)
    dropped: int = 0
    downgraded: int = 0
    #: PTEs unmapped or write-protected: the size of the shootdown batch.
    ptes_shot_down: int = 0

    @property
    def pages_affected(self) -> int:
        return len(self.flushed) + self.dropped + self.downgraded


class PageCache:
    """LRU page store with per-domain PTEs and region invalidation."""

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("cache needs at least one page")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[int, CachedPage]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, va: int) -> bool:
        return align_down(va, PAGE_SIZE) in self._pages

    # -- access path ---------------------------------------------------------

    def lookup(self, va: int, write: bool, pdid: int = 0) -> Optional[CachedPage]:
        """Hit check; returns the page only if ``pdid`` maps it with the
        permission the access needs.

        A miss, a page only other domains map, and a write to a page this
        domain maps read-only (a *permission miss*) all return None: the
        caller must fault, so the switch runs protection and the S->M
        transition.
        """
        page_va = va - (va % PAGE_SIZE)
        page = self._pages.get(page_va)
        if page is None:
            return None
        writable = page.domains.get(pdid)
        if writable is None or (write and not writable):
            return None
        self._pages.move_to_end(page_va)
        if write:
            page.dirty = True
        return page

    def consume_hit_run(
        self,
        vas,
        writes,
        start: int,
        end: int,
        debt: float,
        debt_limit: float,
        step: float,
        pdid: int = 0,
    ):
        """Retire a run of consecutive cache hits in one call (batched replay).

        Walks ``vas[start:end]`` applying exactly the per-access hit
        semantics of :meth:`lookup` for domain ``pdid`` (LRU touch, dirty
        mark on writes), accumulating ``step`` microseconds of local-time
        debt per hit.  Stops *without consuming the access* at the first
        miss or permission miss, leaving it to the caller's fault path.
        Stops *after consuming the access* once ``debt`` reaches
        ``debt_limit``, matching the per-access loop, which pays its debt
        after the hit that crossed the threshold.  Returns
        ``(next_index, debt)``.
        """
        pages = self._pages
        get = pages.get
        move = pages.move_to_end
        i = start
        while i < end:
            va = vas[i]
            page_va = va - (va % PAGE_SIZE)
            page = get(page_va)
            if page is None:
                break
            if writes[i]:
                if not page.domains.get(pdid):
                    break
                page.dirty = True
            elif pdid not in page.domains:
                break
            move(page_va)
            i += 1
            debt += step
            if debt >= debt_limit:
                break
        return i, debt

    def peek(self, va: int) -> Optional[CachedPage]:
        """Non-mutating lookup (no LRU update, no permission check)."""
        return self._pages.get(align_down(va, PAGE_SIZE))

    # -- fills & eviction ------------------------------------------------------

    def insert(
        self, va: int, data: Optional[bytes], writable: bool, pdid: int = 0
    ) -> List[CachedPage]:
        """Fill a page for ``pdid`` after a fault; returns evicted pages
        (dirty ones must be flushed by the caller before it reuses the
        frame).  Evicted pages leave with their PTEs.  The page keeps
        ``bytes(data)``: fetched ``bytes`` are shared, a ``bytearray`` is
        copied."""
        page_va = align_down(va, PAGE_SIZE)
        existing = self._pages.get(page_va)
        if existing is not None:
            # Re-fill (a permission upgrade or another domain's first
            # touch): refresh the payload and map the domain.  A fill never
            # lowers the domain's permission.
            if data is not None:
                existing.data = bytes(data)
            domains = existing.domains
            domains[pdid] = domains.get(pdid, False) or writable
            self._pages.move_to_end(page_va)
            return []
        evicted: List[CachedPage] = []
        while len(self._pages) >= self.capacity_pages:
            evicted.append(self._pages.popitem(last=False)[1])
        self._pages[page_va] = CachedPage(
            page_va, bytes(data) if data is not None else None, {pdid: writable}
        )
        return evicted

    def drop(self, va: int) -> Optional[CachedPage]:
        """Remove a page and every domain's PTE for it (no write-back)."""
        return self._pages.pop(align_down(va, PAGE_SIZE), None)

    def unmap_domain_range(self, pdid: int, base: int, size: int) -> None:
        """Remove one domain's PTEs in a VA range (permission revocation).

        The pages stay resident and other domains' PTEs are untouched.
        """
        for page in self.pages_in(base, size):
            page.domains.pop(pdid, None)

    # -- invalidation ------------------------------------------------------------

    def pages_in(self, base: int, size: int) -> List[CachedPage]:
        """The resident pages in ``[base, base + size)``, least recently
        used first."""
        end = base + size
        return [p for va, p in self._pages.items() if base <= va < end]

    def invalidate_region(
        self, base: int, size: int, downgrade_to_shared: bool, keep_dirty: bool = False
    ) -> InvalidationOutcome:
        """Apply a region invalidation (Section 6.1) in one pass.

        Dirty pages are returned for write-back, in recency order.  With
        ``downgrade_to_shared`` (an M->S transition at the old owner) pages
        stay resident and every writable PTE on them is write-protected;
        otherwise every page in the region is dropped with all of its
        PTEs.  ``keep_dirty`` (MOESI's M->O) write-protects but *keeps*
        pages dirty and unflushed: this blade remains the data's only
        up-to-date holder.  ``ptes_shot_down`` counts the PTEs changed.
        """
        outcome = InvalidationOutcome()
        pages = self._pages
        for page in self.pages_in(base, size):
            domains = page.domains
            if downgrade_to_shared:
                for pdid, writable in domains.items():
                    if writable:
                        domains[pdid] = False
                        outcome.ptes_shot_down += 1
                if page.dirty and not keep_dirty:
                    page.dirty = False
                    outcome.flushed.append(page)
                else:
                    outcome.downgraded += 1
            else:
                del pages[page.va]
                outcome.ptes_shot_down += len(domains)
                if page.dirty:
                    outcome.flushed.append(page)
                else:
                    outcome.dropped += 1
        return outcome
