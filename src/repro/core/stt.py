"""Materialized coherence state-transition tables (Section 6.3).

A single MAU cannot look up a directory entry, compute the transition, and
write the entry back in one pass, so MIND *materializes* the protocol's
transition function as a match table in a second MAU: the STT.  Keys are
``(current state, access type, requester role)``; values name the next
state and the data-path actions.  Trading table entries for compute this
way is what makes the protocol realizable at line rate.

MSI is the protocol MIND ships (Section 4.3.2).  Section 8 notes that
richer protocols like MESI/MOESI only cost tens more STT entries; we
include MESI as a working extension used by the ablation benchmarks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from ..switchsim.packets import AccessType
from .directory import CoherenceState


class RequesterRole(enum.Enum):
    """The requesting blade's relationship to the region's directory entry."""

    NONE = "none"      # not in the sharer list, not the owner
    SHARER = "sharer"  # holds (some pages of) the region in Shared mode
    OWNER = "owner"    # owns the region in Modified mode


class TransitionAction(enum.Enum):
    """Data-path action selected by the STT."""

    #: Fetch the page from its memory blade; no invalidation needed.
    FETCH_ONLY = "fetch-only"
    #: Invalidate sharers via multicast, *in parallel* with the fetch: the
    #: memory blade holds clean data, so the fetch need not wait (S->M).
    INVALIDATE_PARALLEL = "invalidate-parallel"
    #: Invalidate the current owner first (flushing its dirty pages), then
    #: fetch -- two sequential network phases (M->S, M->M), ~2x latency.
    INVALIDATE_OWNER_THEN_FETCH = "invalidate-owner-then-fetch"
    #: MOESI: serve the page straight from the owner's cache in the same
    #: trip that downgrades it -- no memory write-back, one network phase.
    FETCH_FROM_OWNER = "fetch-from-owner"
    #: MOESI: the owner upgrades in place (O->M): invalidate the other
    #: sharers, move no data -- the owner already holds the latest bytes.
    LOCAL_UPGRADE = "local-upgrade"


@dataclass(frozen=True)
class Transition:
    """One STT entry's action set."""

    next_state: CoherenceState
    action: TransitionAction
    #: the paper's transition label, used for latency bucketing (Fig. 7 left).
    label: str
    #: whether the previous owner retains the region in Shared mode (M->S).
    owner_downgrades: bool = False


SttKey = Tuple[CoherenceState, AccessType, RequesterRole]

I, S, M = CoherenceState.INVALID, CoherenceState.SHARED, CoherenceState.MODIFIED
O = CoherenceState.OWNED
R, W = AccessType.READ, AccessType.WRITE
NONE, SHARER, OWNER = RequesterRole.NONE, RequesterRole.SHARER, RequesterRole.OWNER


def build_msi_stt() -> Dict[SttKey, Transition]:
    """The MSI transition table MIND installs in the STT MAU."""
    return {
        # Reads.
        (I, R, NONE): Transition(S, TransitionAction.FETCH_ONLY, "I->S"),
        (S, R, NONE): Transition(S, TransitionAction.FETCH_ONLY, "S->S"),
        # A sharer faulting on a page of an S region it already shares is a
        # plain capacity miss: fetch, no transition.
        (S, R, SHARER): Transition(S, TransitionAction.FETCH_ONLY, "S->S"),
        (M, R, OWNER): Transition(M, TransitionAction.FETCH_ONLY, "M(own)"),
        (M, R, NONE): Transition(
            S, TransitionAction.INVALIDATE_OWNER_THEN_FETCH, "M->S", owner_downgrades=True
        ),
        (M, R, SHARER): Transition(
            S, TransitionAction.INVALIDATE_OWNER_THEN_FETCH, "M->S", owner_downgrades=True
        ),
        # Writes.
        (I, W, NONE): Transition(M, TransitionAction.FETCH_ONLY, "I->M"),
        (S, W, NONE): Transition(M, TransitionAction.INVALIDATE_PARALLEL, "S->M"),
        (S, W, SHARER): Transition(M, TransitionAction.INVALIDATE_PARALLEL, "S->M"),
        (M, W, OWNER): Transition(M, TransitionAction.FETCH_ONLY, "M(own)"),
        (M, W, NONE): Transition(
            M, TransitionAction.INVALIDATE_OWNER_THEN_FETCH, "M->M"
        ),
        (M, W, SHARER): Transition(
            M, TransitionAction.INVALIDATE_OWNER_THEN_FETCH, "M->M"
        ),
    }


def build_mesi_stt() -> Dict[SttKey, Transition]:
    """MESI variant (Section 8 extension).

    The directory-visible difference from MSI: a sole reader is granted an
    exclusive copy, so its *subsequent write* needs no directory transition
    at all.  In the region directory we encode E as Modified-with-clean-data;
    the observable effect modelled here is that an I->read by a sole sharer
    lands in M (exclusive) rather than S, eliminating the S->M upgrade
    invalidation for private read-then-write patterns.
    """
    stt = build_msi_stt()
    stt[(I, R, NONE)] = Transition(M, TransitionAction.FETCH_ONLY, "I->E")
    return stt


def build_moesi_stt() -> Dict[SttKey, Transition]:
    """MOESI variant (the Section 8 extension, implemented).

    What changes versus MSI:

    - A read stealing a Modified region moves it to **Owned**: the old
      owner keeps its dirty pages (write-protected, unflushed) and serves
      the data directly, so the transition costs one network phase and no
      memory write-back (vs MSI's flush-then-fetch).
    - Further readers of an Owned region fetch from the owner likewise.
    - The owner upgrades O -> M locally: invalidate the other sharers,
      move no data.
    - A non-owner writing an Owned region invalidates owner+sharers (the
      owner's flush) and fetches -- the one case that still pays two
      phases.
    - Like MESI, a sole reader is granted an exclusive (clean-M) copy.
    """
    stt = build_msi_stt()
    stt[(I, R, NONE)] = Transition(M, TransitionAction.FETCH_ONLY, "I->E")
    # Read-steals keep the dirty data at the owner.
    stt[(M, R, NONE)] = Transition(
        O, TransitionAction.FETCH_FROM_OWNER, "M->O", owner_downgrades=True
    )
    stt[(M, R, SHARER)] = Transition(
        O, TransitionAction.FETCH_FROM_OWNER, "M->O", owner_downgrades=True
    )
    # Owned-region behaviour.
    stt[(O, R, NONE)] = Transition(
        O, TransitionAction.FETCH_FROM_OWNER, "O->O", owner_downgrades=True
    )
    stt[(O, R, SHARER)] = Transition(
        O, TransitionAction.FETCH_FROM_OWNER, "O->O", owner_downgrades=True
    )
    stt[(O, R, OWNER)] = Transition(O, TransitionAction.FETCH_ONLY, "O(own)")
    stt[(O, W, OWNER)] = Transition(M, TransitionAction.LOCAL_UPGRADE, "O->M")
    stt[(O, W, NONE)] = Transition(
        M, TransitionAction.INVALIDATE_OWNER_THEN_FETCH, "O->M(steal)"
    )
    stt[(O, W, SHARER)] = Transition(
        M, TransitionAction.INVALIDATE_OWNER_THEN_FETCH, "O->M(steal)"
    )
    return stt


def stt_size(stt: Dict[SttKey, Transition]) -> int:
    """Number of TCAM entries the materialized table occupies."""
    return len(stt)


def role_of(region, port: int) -> RequesterRole:
    """The requester's relationship to the directory entry (the STT key's
    third component)."""
    if region.owner == port and region.state in (
        CoherenceState.MODIFIED,
        CoherenceState.OWNED,
    ):
        return RequesterRole.OWNER
    if port in region.sharers:
        return RequesterRole.SHARER
    return RequesterRole.NONE


def apply_transition(region, transition: Transition, requester_port: int) -> None:
    """Directory entry update selected by the STT (applied on recirculation)."""
    region.state = transition.next_state
    if transition.next_state is CoherenceState.MODIFIED:
        region.owner = requester_port
        region.sharers = {requester_port}
    elif transition.next_state is CoherenceState.OWNED:
        # MOESI: the previous owner keeps ownership (and its dirty data);
        # the requester joins as a reader.
        new_sharers = set(region.sharers)
        if region.owner is not None:
            new_sharers.add(region.owner)
        new_sharers.add(requester_port)
        region.sharers = new_sharers
    else:  # SHARED
        new_sharers = set(region.sharers)
        if transition.owner_downgrades and region.owner is not None:
            new_sharers.add(region.owner)
        new_sharers.add(requester_port)
        region.owner = None
        region.sharers = new_sharers
