#!/usr/bin/env python3
"""Switch fail-over: a backup switch takes over a running rack (Section 4.4).

MIND consistently replicates its control-plane state (translation entries,
protection grants, allocations) at a backup switch; control state only
changes on metadata operations, so replication is cheap.  When the primary
dies, the backup installs the replicated translation and protection rules
and starts with a cold coherence directory -- blades re-fault and re-warm
it.

This example crashes the switch under a live process through a fault
plan, lets the backup take over, and shows translation/protection survive
while the directory re-populates on demand.

Run:  python examples/switch_failover.py
"""

from repro.api import MindSystem, PermissionClass
from repro.faults import FaultPlan
from repro.switchsim.packets import AccessType, PacketVerdict


def main() -> None:
    system = MindSystem(num_compute_blades=2, num_memory_blades=2)
    failover = system.enable_failover()
    mmu = system.cluster.mmu
    proc = system.spawn_process("app")
    data_buf = proc.mmap(1 << 16)
    ro_buf = proc.mmap(1 << 12, PermissionClass.READ_ONLY)
    t0 = proc.spawn_thread()
    t0.write(data_buf, b"survives the failover")
    before = mmu.address_space.translate(data_buf)
    print(f"primary switch: {len(mmu.protection)} protection "
          f"entries, {mmu.directory_entries()} directory entries")

    # --- the primary switch fails; the backup takes over ---
    crash_at = system.now_us + 10.0
    system.inject_faults(FaultPlan().switch_crash(at_us=crash_at))
    system.cluster.run(until=crash_at + 5_000.0)
    (start, end), = failover.outage_windows
    rules = system.stats.counter("failover_rules_installed")
    print(f"\nswitch crashed at {start:.0f} us; the backup installed {rules} "
          f"replicated rules and served again after {end - start:.0f} us:")

    # Translation is identical: the same VA routes to the same blade and
    # physical address, so memory contents remain reachable.
    after = mmu.address_space.translate(data_buf)
    assert (before.blade_id, before.pa) == (after.blade_id, after.pa)
    print(f"  translation {data_buf:#x} -> blade {after.blade_id} "
          f"pa {after.pa:#x} (identical)")

    # Protection survives, including permission classes.
    assert mmu.protection.check(
        proc.pid, data_buf, AccessType.WRITE) is PacketVerdict.ALLOW
    assert mmu.protection.check(
        proc.pid, ro_buf, AccessType.WRITE) is PacketVerdict.REJECT_PERMISSION
    assert mmu.protection.check(
        4242, data_buf, AccessType.READ) is PacketVerdict.REJECT_NO_ENTRY
    print("  protection kept (rw vma writable, ro vma protected,"
          " foreign domains rejected)")

    # The directory starts cold -- coherence safety does not depend on it;
    # blades simply re-fault and the directory re-warms.
    assert mmu.directory_entries() == 0
    t1 = proc.spawn_thread()
    assert t1.read(data_buf, 21) == b"survives the failover"
    assert mmu.directory_entries() >= 1
    print(f"  directory cold, then re-warmed by a page fault "
          f"({mmu.directory_entries()} entry after blade {t1.blade_id} read)")

    # New allocations on the backup do not collide with pre-failure vmas.
    fresh = proc.mmap(1 << 12)
    assert fresh not in (data_buf, ro_buf)
    print(f"  post-failover allocation at {fresh:#x} "
          "(no collision with survivors)")
    print("\nfail-over complete: applications keep their address space.")


if __name__ == "__main__":
    main()
