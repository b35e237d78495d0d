"""Global allocation: least-allocated-blade placement over pluggable policies.

The control plane's global view (P2) is the per-blade allocated byte
counts; each allocation goes to the blade with the least.  Because the VA
space is range-partitioned one-to-one onto blades, choosing a blade fixes
the VA range the per-blade policy carves from.

The per-blade allocator is a pluggable :class:`AllocatorPolicy` chosen by
name (``first-fit`` is the default).  Each allocation sorts the blades by
``(allocated_bytes, blade_id)`` and probes them in that order.  An
allocator holds one rack's memory blades (no preset or benchmark gives it
more than 8), so the sort is cheap and no order is kept between calls.

When a cost model is attached (the ``allocator=`` axis is set), every
operation also produces ``last_cost_us`` for the controller to charge on
the switch control CPU, and the per-blade metadata footprints are banked
against a :class:`~repro.switchsim.sram.MetadataSram`.  Every mutation
goes through this class -- migration shadows too (:meth:`allocate_on`) --
and re-banks the footprint of the one blade it touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Type

from .arena import ArenaAllocator
from .buddy import BuddyAllocator
from .bump import BumpAllocator
from .cost import AllocCostModel
from .firstfit import FirstFitAllocator
from .policy import AllocatorPolicy, OutOfMemoryError
from .slab import SlabAllocator

#: policy registry: the ``allocator=`` axis values.
POLICIES: Dict[str, Type[AllocatorPolicy]] = {
    FirstFitAllocator.name: FirstFitAllocator,
    SlabAllocator.name: SlabAllocator,
    BuddyAllocator.name: BuddyAllocator,
    ArenaAllocator.name: ArenaAllocator,
    BumpAllocator.name: BumpAllocator,
}


def make_policy(name: str, base: int, size: int) -> AllocatorPolicy:
    """Instantiate a registered policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown allocator policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls(base, size)


@dataclass
class BladeAllocation:
    """Result of a global allocation: where a vma landed."""

    blade_id: int
    va_base: int
    length: int
    #: modeled control-CPU cost of this allocation (0.0 when unmodeled).
    cost_us: float = 0.0


class GlobalAllocator:
    """Least-allocated-blade placement over per-blade allocator policies."""

    def __init__(
        self,
        policy: str = "first-fit",
        cost_model: Optional[AllocCostModel] = None,
        metadata_sram=None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown allocator policy {policy!r}; "
                f"choose from {sorted(POLICIES)}"
            )
        self.policy_name = policy
        self._policy_cls = POLICIES[policy]
        self.cost_model = cost_model
        self.metadata_sram = metadata_sram
        self._blades: Dict[int, AllocatorPolicy] = {}
        #: blade id -> metadata bytes banked as of its last operation.
        self._metadata: Dict[int, int] = {}
        #: modeled control-CPU cost of the most recent operation (us).
        self.last_cost_us = 0.0
        self.enomem_count = 0

    @property
    def modeled(self) -> bool:
        """Whether allocation latency/telemetry modeling is active."""
        return self.cost_model is not None

    # -- membership --------------------------------------------------------

    def add_blade(self, blade_id: int, va_base: int, size: int) -> None:
        if blade_id in self._blades:
            raise ValueError(f"blade {blade_id} already registered")
        self._blades[blade_id] = self._policy_cls(va_base, size)
        self._rebank(blade_id)

    def remove_blade(self, blade_id: int, force: bool = False) -> None:
        """Retire a blade.  ``force`` skips the emptiness check -- used
        after migration has evacuated the data but VA ranges of live vmas
        still point (via outliers) elsewhere."""
        alloc = self._blades.get(blade_id)
        if alloc is None:
            raise KeyError(f"no blade {blade_id}")
        if alloc.allocated_bytes and not force:
            raise RuntimeError(
                f"blade {blade_id} still has {alloc.allocated_bytes} bytes allocated; "
                "migrate before retiring"
            )
        del self._blades[blade_id]
        del self._metadata[blade_id]
        self._sync_sram()

    def blade(self, blade_id: int) -> AllocatorPolicy:
        return self._blades[blade_id]

    @property
    def blade_ids(self) -> List[int]:
        return sorted(self._blades)

    def allocated_per_blade(self) -> Dict[int, int]:
        return {bid: alloc.allocated_bytes for bid, alloc in self._blades.items()}

    # -- metadata banking --------------------------------------------------

    def _rebank(self, blade_id: int) -> None:
        """Re-read one blade's metadata footprint into the SRAM bank."""
        self._metadata[blade_id] = self._blades[blade_id].metadata_bytes()
        self._sync_sram()

    def _sync_sram(self) -> None:
        if self.metadata_sram is not None:
            self.metadata_sram.set_used(sum(self._metadata.values()))

    def attach_metadata_sram(self, sram) -> None:
        """(Re)bind the SRAM bank -- used when a backup switch adopts a
        rebuilt allocator after fail-over."""
        self.metadata_sram = sram
        self._sync_sram()

    def _cost(self, steps: int) -> float:
        if self.cost_model is None:
            return 0.0
        return self.cost_model.cost_us(steps)

    # -- allocation --------------------------------------------------------

    def allocate(self, length: int, owner: Optional[int] = None) -> BladeAllocation:
        """Place a new vma on the least-allocated blade that can fit it.

        Blades are probed in ``(allocated_bytes, blade_id)`` order.  The
        length is padded per the active policy (the default first-fit pads
        to a power of two, min one page, so the vma is a single TCAM
        prefix) and the base aligned per the policy's rule.
        """
        if not self._blades:
            raise OutOfMemoryError("no memory blades registered")
        padded = self._policy_cls.padded_size(length)
        alignment = self._policy_cls.alignment_for(padded)
        order = sorted((alloc.allocated_bytes, bid) for bid, alloc in self._blades.items())
        for probes, (_allocated, blade_id) in enumerate(order):
            alloc = self._blades[blade_id]
            try:
                base = alloc.allocate(
                    padded, alignment, requested=length, owner=owner
                )
            except OutOfMemoryError:
                continue
            self.last_cost_us = self._cost(alloc.last_op_steps + probes)
            self._rebank(blade_id)
            return BladeAllocation(blade_id, base, padded, self.last_cost_us)
        self.enomem_count += 1
        self.last_cost_us = self._cost(len(order))
        raise OutOfMemoryError(f"no blade can fit {padded:#x} bytes")

    def allocate_on(self, blade_id: int, length: int, alignment: int) -> int:
        """Place a ``length``-byte block on a named blade (a migration's
        destination shadow); returns its base."""
        alloc = self._blades[blade_id]
        base = alloc.allocate(length, alignment)
        self.last_cost_us = self._cost(alloc.last_op_steps)
        self._rebank(blade_id)
        return base

    def allocate_at(self, blade_id: int, base: int, length: int) -> int:
        """Claim an exact range on a named blade (fail-over replay)."""
        alloc = self._blades[blade_id]
        result = alloc.allocate_at(base, length)
        self.last_cost_us = self._cost(alloc.last_op_steps)
        self._rebank(blade_id)
        return result

    def free(self, blade_id: int, va_base: int) -> int:
        alloc = self._blades[blade_id]
        length = alloc.free(va_base)
        self.last_cost_us = self._cost(alloc.last_op_steps)
        self._rebank(blade_id)
        return length

    def jain_fairness(self) -> float:
        """Jain's fairness index over per-blade allocated bytes (Fig. 8 right).

        1.0 means perfectly balanced; 1/n means all load on one blade.
        """
        loads = [a.allocated_bytes for a in self._blades.values()]
        if not loads or sum(loads) == 0:
            return 1.0
        num = sum(loads) ** 2
        den = len(loads) * sum(x * x for x in loads)
        return num / den

    # -- telemetry ---------------------------------------------------------

    def raw_telemetry(self) -> Dict[str, float]:
        """Summable allocator accounting (one dict per rack/allocator)."""
        blades = [self._blades[b] for b in sorted(self._blades)]
        return {
            "allocated": float(sum(a.allocated_bytes for a in blades)),
            "requested": float(sum(a._requested_bytes for a in blades)),
            "free": float(sum(a.free_bytes for a in blades)),
            "waste": float(sum(a.waste_bytes for a in blades)),
            "largest_hole": float(sum(a.largest_hole for a in blades)),
            "metadata": float(sum(self._metadata.values())),
            "steps": float(sum(a.total_steps for a in blades)),
            "ops": float(sum(a.total_ops for a in blades)),
            "enomem": float(self.enomem_count),
        }


def alloc_gauges(raws: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Merge per-allocator raw telemetry into the ``alloc:*`` gauge set.

    Byte/step quantities sum; the fragmentation fractions are recomputed
    from the summed bytes so multi-rack aggregation stays well-defined.
    """
    total: Dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            total[key] = total.get(key, 0.0) + value
    free = total.get("free", 0.0)
    allocated = total.get("allocated", 0.0)
    ops = total.get("ops", 0.0)
    external = 1.0 - total.get("largest_hole", 0.0) / free if free > 0 else 0.0
    internal = 1.0 - total.get("requested", 0.0) / allocated if allocated > 0 else 0.0
    return {
        "alloc:allocated_bytes": allocated,
        "alloc:free_bytes": free,
        "alloc:waste_bytes": total.get("waste", 0.0),
        "alloc:metadata_bytes": total.get("metadata", 0.0),
        "alloc:frag:external": external,
        "alloc:frag:internal": internal,
        "alloc:steps_per_op": total.get("steps", 0.0) / ops if ops > 0 else 0.0,
        "alloc:enomem": total.get("enomem", 0.0),
    }
