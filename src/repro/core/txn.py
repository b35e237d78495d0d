"""First-class fault transactions and the MSHR-style pending table.

The paper's switch directory handles racing requests with *transient
states* (Sections 4.3.2 and 6.3): a directory entry mid-transition
remembers what is outstanding and either absorbs a compatible request or
parks a conflicting one.  Earlier revisions of this codebase approximated
that with a per-region FIFO lock table, which serialized even compatible
readers.  This module models the hardware shape directly:

- :class:`Transaction` -- one page-fault transaction with explicit phases
  (admit -> resolve -> invalidate/fetch -> complete).
- :class:`PendingTransactionTable` -- the switch's outstanding-transaction
  table.  Concurrent Shared-read faults on one region *coalesce*: they are
  admitted together, and reads of a page whose fetch is already in flight
  join that fetch (one memory-blade RDMA, N completions), like MSHR miss
  merging.  Conflicting requests queue on the entry's transient state.
  Table occupancy is a modeled switch resource with a configurable cap
  (``MindConfig.pending_table_capacity``); admissions beyond the cap wait.
- :class:`AdmissionController` -- the ADMIT phase: directory-entry
  creation with the capacity fallback chain (reclaim, merge, evict), then
  pending-table admission, re-checked against entry splits/merges/evictions
  that happened while waiting.

The control plane (Bounded Splitting, migration, capacity eviction) takes
the same admission gate via :meth:`PendingTransactionTable.admit_control`,
so split/merge/evict never races a fault transaction on the same entry.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Generator, List, Optional, Tuple

from ..sim.engine import Engine, Event, Resource
from ..switchsim.packets import PacketVerdict
from .directory import CoherenceState, DirectoryFullError, Region
from .stt import Transition, TransitionAction, role_of

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..obs.spans import SpanCursor
    from ..sim.stats import StatsCollector
    from .coherence import CoherenceProtocol


@dataclass
class FaultResult:
    """What the requesting blade learns when its fault transaction ends."""

    verdict: PacketVerdict
    data: Optional[bytes] = None
    #: a switch fail-over happened mid-flight: directory effects may be
    #: lost, so the blade must re-issue against the rebuilt data plane.
    stale: bool = False
    #: this Shared read joined another transaction's in-flight fetch of the
    #: same page (MSHR coalescing): one memory RDMA served N requesters.
    coalesced: bool = False


class TxnPhase(enum.Enum):
    """Lifecycle phases of one fault transaction."""

    ADMIT = "admit"
    RESOLVE = "resolve"
    INVALIDATE = "invalidate"
    FETCH = "fetch"
    COMPLETE = "complete"


class Transaction:
    """One in-flight fault transaction (or a control-plane admission)."""

    __slots__ = (
        "txn_id",
        "src_port",
        "page_va",
        "is_write",
        "key",
        "phase",
        "shared",
        "control",
        "force_exclusive",
        "t_admit",
    )

    def __init__(
        self, txn_id: int, src_port: int, page_va: int, is_write: bool, control: bool = False
    ):
        self.txn_id = txn_id
        self.src_port = src_port
        self.page_va = page_va
        self.is_write = is_write
        #: region base this transaction is admitted on (set at admission).
        self.key: Optional[int] = None
        self.phase = TxnPhase.ADMIT
        #: admitted in shared (coalescible) mode rather than exclusively.
        self.shared = False
        #: a control-plane admission (split/merge/evict/migrate): always
        #: exclusive, exempt from the data-path occupancy cap.
        self.control = control
        #: set after a misclassified shared admission; forces the retry to
        #: take the entry exclusively.
        self.force_exclusive = False
        self.t_admit = 0.0


class PageFetch:
    """A published in-flight memory-blade fetch that readers may join."""

    __slots__ = ("page_va", "done", "data", "joiners")

    def __init__(self, page_va: int, done: Event):
        self.page_va = page_va
        self.done = done
        self.data: Optional[bytes] = None
        self.joiners = 0


class _Entry:
    """Transient state for one region base with outstanding transactions."""

    __slots__ = ("key", "mode", "holders", "waiters", "fetches", "region")

    def __init__(self, key: int):
        self.key = key
        self.mode = "exclusive"
        self.holders: List[Transaction] = []
        #: FIFO of parked transactions: (txn, wake event).
        self.waiters: Deque[Tuple[Transaction, Event]] = deque()
        #: page_va -> published in-flight fetch (MSHR miss merging).
        self.fetches: Dict[int, PageFetch] = {}
        #: the directory entry this transient state is flagged on.
        self.region: Optional[Region] = None


class PendingTransactionTable:
    """The switch's outstanding-transaction (MSHR-style) table.

    Replaces the old per-region ``LockTable``.  Entries are keyed by region
    base; each entry is either *exclusive* (one holder: a write, a
    state-changing read, or a control-plane operation) or *shared* (any
    number of concurrent Shared-read holders).  Arrivals that cannot join
    park FIFO on the entry; their wait is the ``queue_conflict`` span
    component.  Occupancy (data-path transactions in flight) is capped by a
    named :class:`~repro.sim.engine.Resource`, so cap pressure shows up in
    the run report's queueing hotspots.
    """

    def __init__(self, engine: Engine, stats: "StatsCollector", capacity: int = 256):
        self.engine = engine
        self.stats = stats
        self.capacity = capacity
        self._slots = Resource(engine, capacity=capacity, name="switch.pending_txns")
        self._entries: Dict[int, _Entry] = {}
        self._next_id = 0
        #: high-water mark of concurrently admitted data-path transactions.
        self.peak = 0

    # -- introspection ----------------------------------------------------

    @property
    def occupancy(self) -> int:
        """Data-path transactions currently holding a table slot."""
        return self._slots.in_use

    def inflight(self, key: int) -> int:
        """Number of transactions admitted on ``key`` right now."""
        entry = self._entries.get(key)
        return len(entry.holders) if entry is not None else 0

    # -- transaction factory ----------------------------------------------

    def transaction(self, src_port: int, page_va: int, is_write: bool) -> Transaction:
        self._next_id += 1
        return Transaction(self._next_id, src_port, page_va, is_write)

    # -- admission --------------------------------------------------------

    def _wants_shared(self, txn: Transaction, region: Region) -> bool:
        """A read of a Shared region is coalescible: every protocol's STT
        maps it to a pure fetch that leaves the region Shared, so any
        number may proceed concurrently."""
        return (
            not txn.control
            and not txn.is_write
            and not txn.force_exclusive
            and region.state is CoherenceState.SHARED
        )

    def admit(self, txn: Transaction, region: Region) -> Generator:
        """Admit ``txn`` on ``region``'s entry; yields until granted.

        Returns True when the transaction had to park (conflict or cap
        pressure), so the caller can attribute the wait.
        """
        txn.key = region.base
        txn.phase = TxnPhase.ADMIT
        waited = False
        if not txn.control:
            slot_wait = yield self._slots.acquire()
            if slot_wait:
                waited = True
            self.stats.incr("txn_admitted")
            if self._slots.in_use > self.peak:
                self.peak = self._slots.in_use
        entry = self._entries.get(region.base)
        txn.shared = self._wants_shared(txn, region)
        if entry is None:
            entry = _Entry(region.base)
            self._entries[region.base] = entry
            self._grant(entry, txn, region)
        elif txn.shared and entry.mode == "shared" and not entry.waiters and entry.holders:
            self._grant(entry, txn, region)
        else:
            self.stats.incr("txn_conflict_waits")
            wake = self.engine.event()
            entry.waiters.append((txn, wake))
            yield wake
            waited = True
        txn.t_admit = self.engine.now
        return waited

    def _grant(self, entry: _Entry, txn: Transaction, region: Region) -> None:
        entry.holders.append(txn)
        entry.mode = "shared" if txn.shared else "exclusive"
        self._bind_region(entry, region)

    def _bind_region(self, entry: _Entry, region: Region) -> None:
        """Flag the directory entry with this table entry's transient state
        (the flag the split/merge/evict paths consult)."""
        if entry.region is not None and entry.region is not region:
            entry.region.transient = ""
        entry.region = region
        region.transient = entry.mode

    def rebind(self, txn: Transaction, region: Region) -> None:
        """Re-point the transient flag after the directory entry at
        ``txn.key`` was replaced (split/merge) while the txn waited."""
        entry = self._entries.get(txn.key) if txn.key is not None else None
        if entry is not None:
            self._bind_region(entry, region)

    def downgrade(self, txn: Transaction, region: Region) -> None:
        """Exclusive -> shared once the holder's remaining work is a pure
        Shared fetch (it has applied its ``-> S`` directory update).  Parked
        compatible readers are admitted immediately and can join the
        holder's published fetch -- the MSHR merge window."""
        if txn.control:
            raise ValueError("control admissions cannot downgrade")
        assert txn.key is not None, "downgrade before admission"
        entry = self._entries[txn.key]
        txn.shared = True
        entry.mode = "shared"
        if entry.region is not None:
            entry.region.transient = "shared"
        self._grant_waiters(entry)

    def complete(self, txn: Transaction) -> None:
        """Retire a transaction: free its slot, grant parked waiters, drop
        the entry when nothing is outstanding."""
        txn.phase = TxnPhase.COMPLETE
        entry = self._entries.get(txn.key) if txn.key is not None else None
        if entry is not None and txn in entry.holders:
            entry.holders.remove(txn)
            if not entry.holders:
                self._grant_waiters(entry)
            if not entry.holders and not entry.waiters:
                if entry.region is not None:
                    entry.region.transient = ""
                del self._entries[entry.key]
        if not txn.control:
            self._slots.release()

    def _grant_waiters(self, entry: _Entry) -> None:
        """Grant from the FIFO head: one exclusive waiter, or a run of
        consecutive shared-compatible waiters.  Shared eligibility is
        re-evaluated at grant time -- the region's state may have moved
        while the waiter was parked."""
        if entry.holders and entry.mode == "exclusive":
            return
        while entry.waiters:
            txn, wake = entry.waiters[0]
            region = entry.region
            txn.shared = region is not None and self._wants_shared(txn, region)
            if entry.holders:
                if not (txn.shared and entry.mode == "shared"):
                    return
            entry.waiters.popleft()
            entry.holders.append(txn)
            entry.mode = "shared" if txn.shared else "exclusive"
            if entry.region is not None:
                entry.region.transient = entry.mode
            wake.succeed()
            if entry.mode == "exclusive":
                return

    # -- fetch coalescing -------------------------------------------------

    def publish_fetch(self, txn: Transaction, page_va: int) -> PageFetch:
        """Publish ``txn``'s in-flight memory fetch of ``page_va`` so later
        Shared readers of the same page can join it."""
        assert txn.key is not None, "publish before admission"
        entry = self._entries[txn.key]
        fetch = PageFetch(page_va, self.engine.event())
        entry.fetches[page_va] = fetch
        return fetch

    def inflight_fetch(self, txn: Transaction, page_va: int) -> Optional[PageFetch]:
        """The published fetch of ``page_va`` on ``txn``'s entry, if one is
        in flight; joining increments the coalesced counter."""
        entry = self._entries.get(txn.key) if txn.key is not None else None
        if entry is None:
            return None
        fetch = entry.fetches.get(page_va)
        if fetch is not None:
            fetch.joiners += 1
            self.stats.incr("coalesced_fetches")
        return fetch

    def finish_fetch(
        self, txn: Transaction, fetch: PageFetch, data: Optional[bytes]
    ) -> None:
        """Data returned: complete every joined reader, close the merge
        window (later readers fetch for themselves)."""
        entry = self._entries.get(txn.key) if txn.key is not None else None
        if entry is not None and entry.fetches.get(fetch.page_va) is fetch:
            del entry.fetches[fetch.page_va]
        fetch.data = data
        if not fetch.done.triggered:
            fetch.done.succeed(data)

    # -- control-plane admission gate -------------------------------------

    def admit_control(self, key: int, region: Optional[Region] = None) -> Generator:
        """Exclusive admission for a control-plane operation (split, merge,
        eviction, migration quiesce).  Exempt from the occupancy cap -- it
        models switch-CPU work, not a data-path MSHR.  Returns the control
        transaction to pass to :meth:`release_control`."""
        self._next_id += 1
        txn = Transaction(self._next_id, -1, -1, True, control=True)
        # Control admissions may gate on a bare key (no Region object yet).
        txn.key = key
        entry = self._entries.get(key)
        if entry is None:
            entry = _Entry(key)
            self._entries[key] = entry
            entry.holders.append(txn)
            entry.mode = "exclusive"
            if region is not None:
                self._bind_region(entry, region)
        else:
            wake = self.engine.event()
            entry.waiters.append((txn, wake))
            yield wake
            if region is not None:
                self._bind_region(entry, region)
        return txn

    def release_control(self, txn: Transaction) -> None:
        self.complete(txn)


class AdmissionController:
    """The ADMIT phase: directory-entry lifecycle + pending-table admission.

    Owns the capacity fallback chain the old monolith ran inline: reclaim
    Invalid entries, opportunistically merge, and finally evict a victim
    region (whose collateral drops are false invalidations -- the regime
    the M_A/M_C workloads live in, Fig. 8 left).
    """

    #: run the O(entries) opportunistic-merge scan once per this many
    #: capacity events.
    _MERGE_EVERY = 64

    def __init__(self, ctx: "CoherenceProtocol"):
        self.ctx = ctx
        self._capacity_events = 0

    def resolve(self, txn: Transaction, pkt, access, spans: "SpanCursor") -> Generator:
        """ADMIT then classify: admit the transaction, match the STT.

        A Shared-read admission is optimistic; if the STT verdict turns out
        to need a state change (cannot happen with the shipped STTs, but
        guarded), the transaction re-admits exclusively.  Returns
        ``(region, transition)``.
        """
        ctx = self.ctx
        while True:
            region = yield from self.admit(txn, spans)
            role = role_of(region, txn.src_port)
            transition: Transition = pkt.execute(
                ctx.stt_mau, lambda: ctx.stt[(region.state, access, role)]
            )
            if txn.shared and (
                transition.action is not TransitionAction.FETCH_ONLY
                or transition.next_state is not CoherenceState.SHARED
            ):
                ctx.pending.complete(txn)
                txn.force_exclusive = True
                continue
            txn.phase = TxnPhase.RESOLVE
            return region, transition

    def admit(self, txn: Transaction, spans: "SpanCursor") -> Generator:
        """Find/create the directory entry for ``txn.page_va`` and admit the
        transaction on it.  Re-checks after any wait: the entry may have
        been split, merged or evicted in the meantime."""
        ctx = self.ctx
        page_va = txn.page_va
        while True:
            region = yield from self._ensure_entry(page_va)
            spans.mark("admit")
            yield from ctx.pending.admit(txn, region)
            spans.mark("queue_conflict")
            current = ctx.directory.find(page_va)
            if (
                current is not None
                and current.base == txn.key
                and current.contains(page_va)
            ):
                if current is not region:
                    ctx.pending.rebind(txn, current)
                return current
            ctx.pending.complete(txn)

    def _ensure_entry(self, page_va: int) -> Generator:
        """Directory entry creation with the capacity fallback chain.

        Contended workloads hit this on a large share of faults, so every
        step is O(probe); the O(entries) merge scan runs only once per
        ``_MERGE_EVERY`` capacity events.
        """
        ctx = self.ctx
        directory = ctx.directory
        for _attempt in range(64):
            try:
                return directory.ensure_region(page_va, reclaim=False)
            except DirectoryFullError:
                ctx.stats.incr("directory_capacity_events")
                invalid, victim = directory.sweep(probe=16)
                if invalid is not None:
                    directory.release(invalid)
                    continue
                self._capacity_events += 1
                # The merge scan runs on the first event and then once per
                # _MERGE_EVERY (it is the only O(entries) step here).
                if (
                    self._capacity_events % self._MERGE_EVERY == 1
                    and directory.merge_any(limit=8)
                ):
                    continue
                if victim is None:
                    # Nothing probed was evictable; fall back to a full
                    # reclaim scan (rare).
                    if directory.reclaim_invalid(limit=8) == 0:
                        directory.merge_any(limit=8)
                    continue
                yield from self._evict_entry(victim)
        raise DirectoryFullError("could not make room in the directory")

    def _evict_entry(self, victim: Region) -> Generator:
        """Invalidate a region everywhere and free its slot (capacity path).
        Takes the pending table's admission gate, so the eviction waits out
        any transaction in flight on the victim."""
        ctx = self.ctx
        gate = yield from ctx.pending.admit_control(victim.base, victim)
        try:
            if ctx.directory.find(victim.base) is not victim:
                return
            targets = sorted(
                victim.sharers | ({victim.owner} if victim.owner is not None else set())
            )
            if targets:
                inval = ctx.invalidation.make_eviction_inval(victim, targets)
                ctx.stats.incr("capacity_evictions")
                yield from ctx.invalidation.invalidate_all(inval, targets, victim)
            victim.state = CoherenceState.INVALID
            victim.sharers.clear()
            victim.owner = None
            ctx.directory.release(victim)
        finally:
            ctx.pending.release_control(gate)
