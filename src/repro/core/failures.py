"""Switch fail-over: control-plane capture and data-plane rebuild.

Section 4.4: MIND consistently replicates the control plane at a backup
switch; on a switch failure, the *data-plane* state is reconstructed from
the replicated control-plane state.  Control-plane state only changes on
metadata operations (syscalls, migrations), so replication is cheap.

The simulation does not keep a second copy: the replica always equals the
live control plane, so :func:`capture_control_plane` reads it when a crash
needs it.  The snapshot holds exactly what the backup installs -- the
translation entries as installed (blade ranges at their VA bases, the
outlier routes page migration added), the protection grants, and every
live allocation -- so two captures are equal iff the backup would program
the same tables.

The directory is deliberately *not* replicated: after fail-over every
region starts Invalid and compute blades re-fault, exactly as cold caches
re-warm -- coherence safety never depends on directory persistence because
blades flush dirty pages when asked and memory blades hold the ground
truth for evicted/flushed data.  (A fail-over while dirty pages are cached
relies on the blades themselves surviving, which matches the paper's
scope: it handles *switch* failures here, and defers compute/memory blade
fault-tolerance to prior work.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..alloc import AllocCostModel, GlobalAllocator
from ..switchsim.sram import RegisterArray
from ..switchsim.tcam import Tcam
from .addressing import AddressSpace
from .controller import SwitchController
from .directory import RegionDirectory
from .protection import ProtectionTable
from .vma import PermissionClass, Vma


@dataclass
class ControlPlaneSnapshot:
    """Everything needed to rebuild the data plane on a backup switch."""

    #: base of this switch's slice of the global VA space (every rack but
    #: rack 0 of a multi-rack fabric starts above 0).
    base_va: int
    blade_capacity: int
    #: (memory blade id, VA base) of each blade-range translation entry,
    #: in install order.  A retired blade has none.
    blade_ranges: List[Tuple[int, int]]
    #: (VA base, size, memory blade id, PA base) of each outlier route
    #: page migration installed, in install order.
    outliers: List[Tuple[int, int, int, int]]
    #: every protection grant, including capability-style ``grant_domain``
    #: entries whose pdid is not any task's pid: (pdid, base, length, perm).
    #: Task vma lists alone miss them -- a rebuild that dropped session
    #: domains would segfault every multi-tenant server after fail-over.
    grants: List[Tuple[int, int, int, PermissionClass]]
    #: (base, length, memory blade id) of every live allocation on every
    #: registered blade, migration shadows included, in ascending-base
    #: order -- the order frontier-style policies (slab/arena/bump) can
    #: replay without claiming ranges behind their frontier.
    allocations: List[Tuple[int, int, int]]
    #: Bounded Splitting policy state: the backup's directory must keep the
    #: primary's region-size bounds, or a fail-over silently changes
    #: splitting behaviour (region granularity, merge ceilings).
    initial_region_size: int
    max_region_size: int
    #: allocator-policy axis state: the backup must rebuild with the same
    #: policy (and cost modeling) or post-fail-over placement diverges.
    allocator_policy: str
    allocator_modeled: bool


def capture_control_plane(controller: SwitchController) -> ControlPlaneSnapshot:
    """The control-plane state a backup switch installs, read now."""
    space = controller.address_space
    allocator = controller.allocator
    return ControlPlaneSnapshot(
        base_va=space.base_va,
        blade_capacity=space.blade_capacity,
        blade_ranges=space.blade_ranges(),
        outliers=space.outliers(),
        grants=[
            (pdid, vma.base, vma.length, perm)
            for pdid, vma, perm in controller.protection.grants()
        ],
        allocations=sorted(
            (base, length, blade_id)
            for blade_id in allocator.blade_ids
            for base, length in allocator.blade(blade_id).live_allocations().items()
        ),
        initial_region_size=controller.directory.initial_region_size,
        max_region_size=controller.directory.max_region_size,
        allocator_policy=allocator.policy_name,
        allocator_modeled=allocator.modeled,
    )


@dataclass
class RebuiltDataPlane:
    """The backup switch's freshly programmed tables."""

    address_space: AddressSpace
    protection: ProtectionTable
    directory: RegionDirectory
    allocator: GlobalAllocator


def rebuild_data_plane(
    snapshot: ControlPlaneSnapshot,
    xlate_tcam: Tcam,
    protection_tcam: Tcam,
    directory_sram: RegisterArray,
) -> RebuiltDataPlane:
    """Program a backup switch's tables from a control-plane snapshot.

    Translation entries and protection entries are reinstalled exactly;
    allocator occupancy is replayed so future allocations stay balanced;
    the directory starts empty (all-Invalid), to be re-populated by faults,
    under the primary's region-size bounds.
    """
    address_space = AddressSpace(
        xlate_tcam, snapshot.blade_capacity, base_va=snapshot.base_va
    )
    allocator = GlobalAllocator(
        policy=snapshot.allocator_policy,
        cost_model=AllocCostModel() if snapshot.allocator_modeled else None,
    )
    for blade_id, va_base in snapshot.blade_ranges:
        address_space.add_blade(blade_id, va_base)
        allocator.add_blade(blade_id, va_base, snapshot.blade_capacity)
    for va_base, size, blade_id, pa_base in snapshot.outliers:
        address_space.add_outlier(va_base, size, blade_id, pa_base)
    protection = ProtectionTable(protection_tcam)
    for pdid, base, length, perm in snapshot.grants:
        protection.grant(pdid, Vma(base, length, pdid, perm), perm)
    for base, length, blade_id in snapshot.allocations:
        allocator.allocate_at(blade_id, base, length)
    directory = RegionDirectory(
        directory_sram,
        initial_region_size=snapshot.initial_region_size,
        max_region_size=snapshot.max_region_size,
    )
    return RebuiltDataPlane(address_space, protection, directory, allocator)
