#!/usr/bin/env python3
"""Switch fail-over: rebuilding the data plane from the replicated
control plane (Section 4.4).

MIND consistently replicates its control-plane state (translation entries,
protection grants, allocations) at a backup switch; control state only
changes on metadata operations, so replication is cheap.  When the primary
dies, the backup reprograms a fresh data plane -- translation and
protection tables exactly, the coherence directory cold (blades re-fault
and re-warm it).

This example captures a live system's control plane, "fails" the switch,
rebuilds on backup hardware, and shows translation/protection survive
while the directory re-populates on demand.

Run:  python examples/switch_failover.py
"""

from repro.api import MindSystem, PermissionClass
from repro.core.failures import capture_control_plane, rebuild_data_plane
from repro.switchsim.packets import AccessType, PacketVerdict
from repro.switchsim.sram import RegisterArray
from repro.switchsim.tcam import Tcam


def main() -> None:
    system = MindSystem(num_compute_blades=2, num_memory_blades=2)
    proc = system.spawn_process("app")
    data_buf = proc.mmap(1 << 16)
    ro_buf = proc.mmap(1 << 12, PermissionClass.READ_ONLY)
    t0 = proc.spawn_thread()
    t0.write(data_buf, b"survives the failover")
    print(f"primary switch: {len(system.cluster.mmu.protection)} protection "
          f"entries, {system.cluster.mmu.directory_entries()} directory entries")

    # The backup holds what the primary's control plane holds; capture it.
    snapshot = capture_control_plane(system.controller)
    print(f"replicated control plane: {len(snapshot.blade_ranges)} blade ranges, "
          f"{len(snapshot.grants)} protection grants, "
          f"{len(snapshot.allocations)} allocations")

    # --- primary switch fails; program a backup switch's tables ---
    backup = rebuild_data_plane(
        snapshot,
        xlate_tcam=Tcam(45_000 // 2, name="backup-translation"),
        protection_tcam=Tcam(45_000 // 2, name="backup-protection"),
        directory_sram=RegisterArray(30_000, name="backup-directory"),
    )
    print("\nbackup switch programmed from the snapshot:")

    # Translation is bit-identical: the same VA routes to the same blade
    # and physical address, so memory contents remain reachable.
    orig = system.cluster.mmu.address_space.translate(data_buf)
    new = backup.address_space.translate(data_buf)
    assert (orig.blade_id, orig.pa) == (new.blade_id, new.pa)
    print(f"  translation {data_buf:#x} -> blade {new.blade_id} "
          f"pa {new.pa:#x} (identical)")

    # Protection survives, including permission classes.
    assert backup.protection.check(
        proc.pid, data_buf, AccessType.WRITE) is PacketVerdict.ALLOW
    assert backup.protection.check(
        proc.pid, ro_buf, AccessType.WRITE) is PacketVerdict.REJECT_PERMISSION
    assert backup.protection.check(
        4242, data_buf, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY
    print("  protection table rebuilt (rw vma writable, ro vma protected,"
          " foreign domains rejected)")

    # The directory starts cold -- coherence safety does not depend on it;
    # blades simply re-fault and the directory re-warms.
    assert len(backup.directory) == 0
    print("  directory cold (re-populated by page faults after fail-over)")

    # New allocations on the backup do not collide with pre-failure vmas.
    placement = backup.allocator.allocate(1 << 12)
    assert placement.va_base not in (data_buf, ro_buf)
    print(f"  post-failover allocation at {placement.va_base:#x} "
          "(no collision with survivors)")
    print("\nfail-over complete: applications keep their address space.")


if __name__ == "__main__":
    main()
