"""The allocator-policy interface: one pluggable allocator per memory blade.

MIND hard-wires a first-fit allocator into its control plane (Section 4.1);
the ``mind-malloc-bench`` thesis exists precisely because that choice is a
known weak point.  This module defines the contract every per-blade policy
implements so the ablation can swap allocators without touching the control
plane:

- ``allocate`` / ``free`` with the legacy first-fit signatures;
- running-counter accounting (``allocated_bytes``/``free_bytes`` are O(1),
  never re-summed) plus per-op *scan steps*, the deterministic work measure
  the cost model converts into control-CPU microseconds;
- fragmentation reporting: external (how shattered the free space is) and
  internal (padding overhead over the bytes the caller asked for);
- a metadata footprint in bytes, banked against the switch CPU's SRAM
  budget by the global allocator.

Every policy is deterministic: identical call sequences produce identical
placements, step counts and telemetry, which is what keeps allocator-axis
sweeps byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Dict, List, Optional, Tuple

from ..sim.network import PAGE_SIZE

__all__ = [
    "AllocatorPolicy",
    "OutOfMemoryError",
    "PAGE_SIZE",
    "align_up",
    "round_up_pow2",
]


class OutOfMemoryError(RuntimeError):
    """The requested allocation cannot be satisfied (maps to ENOMEM)."""


# Local copies of the two alignment helpers (also in ``repro.core.vma``).
# ``repro.alloc`` must not import from ``repro.core``: the core package
# imports allocator names from here, and a module-level back-edge would
# make the import order observable (``import repro.alloc`` first would
# explode).  Depending only on ``repro.sim`` keeps the layering acyclic.


def align_up(value: int, alignment: int) -> int:
    return value + (-value % alignment)


def round_up_pow2(value: int) -> int:
    if value <= 0:
        raise ValueError("value must be positive")
    return 1 << (value - 1).bit_length()


class AllocatorPolicy(ABC):
    """One blade's allocator over a contiguous ``[base, base + size)`` range.

    Subclasses implement ``_do_allocate`` / ``_do_free`` (each returning the
    deterministic *step count* of the operation) plus the
    ``largest_hole`` and ``metadata_bytes`` views; the base class owns the
    shared bookkeeping: the live-allocation map, running byte counters,
    requested-byte tracking for internal fragmentation, and step totals.
    """

    #: registry key (the ``allocator=`` axis value).
    name: ClassVar[str] = "abstract"

    def __init__(self, base: int, size: int):
        if size <= 0:
            raise ValueError("allocator range must be non-empty")
        self.base = base
        self.size = size
        #: base -> padded length of every live allocation.
        self._live: Dict[int, int] = {}
        #: base -> bytes the caller actually asked for (<= padded length).
        self._requested: Dict[int, int] = {}
        self._allocated_bytes = 0
        self._requested_bytes = 0
        #: deterministic work measure of the most recent operation.
        self.last_op_steps = 0
        self.total_steps = 0
        self.total_ops = 0

    # -- padding policy (class-level: the global allocator pads before
    # -- choosing a blade, so padding cannot depend on instance state) ----

    @classmethod
    def padded_size(cls, length: int) -> int:
        """Block size this policy carves for a ``length``-byte request.

        Default: next power of two, minimum one page -- the paper's rule
        that keeps every vma a single TCAM prefix (Section 4.2).  Policies
        with finer size classes override this; their non-pow2 vmas simply
        compile to a few prefix entries (``split_range_to_pow2``).
        """
        return round_up_pow2(max(length, PAGE_SIZE))

    @classmethod
    def alignment_for(cls, padded: int) -> int:
        """Base alignment for a ``padded``-byte block (default: natural)."""
        return padded

    # -- public operations -------------------------------------------------

    def allocate(
        self,
        length: int,
        alignment: int,
        requested: Optional[int] = None,
        owner: Optional[int] = None,
    ) -> int:
        """Place a ``length``-byte block at ``alignment``; returns its base.

        ``requested`` is the pre-padding byte count (for internal-
        fragmentation accounting); ``owner`` identifies the allocating
        thread/process for owner-aware policies (the glibc-style arenas).
        """
        if length <= 0:
            raise ValueError("allocation length must be positive")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ValueError("alignment must be a power of two")
        result = self._do_allocate(length, alignment, owner)
        base, steps = result
        self._commit(base, length, requested, steps)
        return base

    def free(self, base: int) -> int:
        """Release an allocation; returns its padded length."""
        length = self._live.get(base)
        if length is None:
            raise KeyError(f"no allocation at {base:#x}")
        del self._live[base]
        self._allocated_bytes -= length
        self._requested_bytes -= self._requested.pop(base)
        steps = self._do_free(base, length)
        self._note(steps)
        return length

    def _commit(
        self, base: int, length: int, requested: Optional[int], steps: int
    ) -> None:
        self._live[base] = length
        asked = length if requested is None else min(requested, length)
        self._requested[base] = asked
        self._allocated_bytes += length
        self._requested_bytes += asked
        self._note(steps)

    def _note(self, steps: int) -> None:
        self.last_op_steps = steps
        self.total_steps += steps
        self.total_ops += 1

    # -- policy internals --------------------------------------------------

    @abstractmethod
    def _do_allocate(
        self, length: int, alignment: int, owner: Optional[int]
    ) -> Tuple[int, int]:
        """Find a placement; return ``(base, steps)`` or raise OOM."""

    @abstractmethod
    def _do_free(self, base: int, length: int) -> int:
        """Return the block to the free structures; return steps.

        Called after the live map and byte counters have been updated, so
        policies may observe ``not self._live`` (e.g. the bump reset).
        """

    # -- accounting views --------------------------------------------------

    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def waste_bytes(self) -> int:
        """Bytes neither live nor reusable (only bump retires bytes)."""
        return 0

    @property
    def free_bytes(self) -> int:
        return self.size - self._allocated_bytes - self.waste_bytes

    @property
    @abstractmethod
    def largest_hole(self) -> int:
        """Largest contiguous allocatable extent (pre-padding)."""

    def holes(self) -> List[Tuple[int, int]]:
        """Sorted free extents, where the policy tracks them explicitly."""
        return []

    def live_allocations(self) -> Dict[int, int]:
        return dict(self._live)

    @abstractmethod
    def metadata_bytes(self) -> int:
        """Control-plane bytes this policy's bookkeeping occupies now."""

    def external_fragmentation(self) -> float:
        """1 - largest_hole / free_bytes: 0 when free space is one extent."""
        free = self.free_bytes
        if free <= 0:
            return 0.0
        return 1.0 - self.largest_hole / free

    def internal_fragmentation(self) -> float:
        """1 - requested / allocated: padding overhead on live bytes."""
        if self._allocated_bytes <= 0:
            return 0.0
        return 1.0 - self._requested_bytes / self._allocated_bytes
