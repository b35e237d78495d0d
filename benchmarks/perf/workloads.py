"""The benchmark's workloads and metric catalogue (plain data, no repro import).

Every workload is a fixed sweep grid, run with the benchmark's ``--seed``.
The parent (``run.py``) and the rep child (``child.py``) both read
this table; only the child imports ``repro``, so the parent stays light.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Axes = Sequence[Tuple[str, object]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a sweep grid plus why it is in the benchmark."""

    why: str
    axes: Axes
    #: axis overrides for the self-test's tiny scale (same code paths).
    tiny: Axes = ()

    def grid(self, tiny: bool = False) -> str:
        """The grid in sweep-DSL syntax (``axis=v1,v2;axis2=...``)."""
        overrides = dict(self.tiny) if tiny else {}
        clauses = []
        for name, values in self.axes:
            values = overrides.get(name, values)
            if not isinstance(values, (list, tuple)):
                values = [values]
            clauses.append(f"{name}={','.join(str(v) for v in values)}")
        return ";".join(clauses)


WORKLOADS: Dict[str, Workload] = {
    "replay": Workload(
        why="closed-loop single-blade trace replay (Fig. 5): batched hit-run "
        "replay and trace synthesis, no invalidation, spine or allocator work",
        axes=(
            ("system", "mind"),
            ("workload", ["tf", "gc"]),
            ("blades", 1),
            ("threads_per_blade", 4),
            ("accesses_per_thread", 30000),
            ("num_memory_blades", 2),
            ("epoch_us", 2000),
        ),
        tiny=(("accesses_per_thread", 600),),
    ),
    "shared-read": Workload(
        why="read-only sharing, working set ~4x the blade cache: fetches and "
        "MSHR coalescing, open-loop Poisson arrivals with telemetry on",
        axes=(
            ("system", "mind"),
            ("workload", "uniform"),
            ("blades", 8),
            ("threads_per_blade", 2),
            ("read_ratio", 1.0),
            ("sharing_ratio", 0.8),
            ("accesses_per_thread", 4000),
            ("shared_pages", 1600),
            ("private_pages_per_thread", 256),
            ("burst", 4),
            ("cache_capacity_pages", 512),
            ("num_memory_blades", 4),
            ("epoch_us", 2000),
            ("telemetry", "true"),
            ("arrival_process", "poisson"),
            ("arrival_rate_per_thread", 0.02),
            ("request_size", 8),
        ),
        tiny=(
            ("accesses_per_thread", 200),
            ("shared_pages", 160),
            ("private_pages_per_thread", 32),
            ("cache_capacity_pages", 64),
        ),
    ),
    "shared-write": Workload(
        why="the same core layer through writes: invalidation multicast, M->S "
        "downgrades and txn conflicts (Fig. 7), closed-loop, telemetry off",
        axes=(
            ("system", "mind"),
            ("workload", "uniform"),
            ("blades", 8),
            ("threads_per_blade", 1),
            ("read_ratio", [0.5, 0.0]),
            ("sharing_ratio", 1.0),
            ("accesses_per_thread", 2000),
            ("shared_pages", 800),
            ("private_pages_per_thread", 512),
            ("burst", 4),
            ("cache_capacity_pages", 6144),
            ("num_memory_blades", 4),
            ("epoch_us", 2000),
        ),
        tiny=(
            ("accesses_per_thread", 200),
            ("shared_pages", 80),
            ("private_pages_per_thread", 64),
        ),
    ),
    "multirack": Workload(
        why="4 racks x 64 blades: the most pending timers and ~44 engine "
        "events per access, sharded directories and spine links",
        axes=(
            ("system", "mind"),
            ("workload", "multirack"),
            ("blades", 64),
            ("threads_per_blade", 1),
            ("racks", 4),
            ("cross_fraction", 0.2),
            ("accesses_per_thread", 24),
            ("pages_per_rack", 512),
            ("read_ratio", 0.7),
            ("cache_capacity_pages", 512),
        ),
        tiny=(("blades", 4), ("accesses_per_thread", 8)),
    ),
    # ops_per_thread=1000 / live_target=3 rather than 100 / 32: with 32 live
    # objects per thread the TCAM size, and with it the coalesce work, swings
    # by ~40% from seed to seed; a long run over small heaps keeps the
    # protection-recompile path hot with a seed-independent amount of work.
    "alloc-churn": Workload(
        why="control plane only: five allocator policies plus protection "
        "recompiles through the switch TCAM on every mmap and munmap",
        axes=(
            ("system", "mind"),
            ("workload", "churn"),
            ("blades", 2),
            ("threads_per_blade", 2),
            ("allocator", ["first-fit", "slab", "buddy", "arena", "bump"]),
            ("size_dist", "mixed"),
            ("ops_per_thread", 1000),
            ("live_target", 3),
            ("num_memory_blades", 4),
            ("cache_capacity_pages", 256),
        ),
        tiny=(("ops_per_thread", 40),),
    ),
    # clients_per_tenant=6 / requests_per_client=160 rather than 3 / 320: the
    # same request count from twice the clients about halves the seed-to-seed
    # swing of admission and retry work.
    "service-chaos": Workload(
        why="the only workload reaching faults and service: fail-over, loss "
        "retransmission, admission, retry-storm defense, tenant telemetry",
        axes=(
            ("system", "mind"),
            ("workload", "kvs_service"),
            ("blades", 4),
            ("threads_per_blade", 2),
            ("chaos", ["none", "full"]),
            ("storm_defense", ["true", "false"]),
            ("clients_per_tenant", 6),
            ("requests_per_client", 160),
        ),
        tiny=(("clients_per_tenant", 2), ("requests_per_client", 24)),
    ),
}


# -- metric catalogue ---------------------------------------------------------

#: end-to-end metrics: (name, unit, better).  ``failed_frac`` is reported
#: beside them, and as ``failed``/``attempted`` in the result line.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("simulate_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("sim_time_us", "us", "lower"),
]

#: kernel counters copied from ``RunResult.kernel_stats`` (summed over points).
KERNEL_COUNTERS = (
    "events_executed",
    "processes_started",
    "inline_clock_advances",
    "inline_continuations",
    "subtasks_fused",
    "calendar_rotations",
    "calendar_rebuilds",
    "batched_retires",
)

#: modelled-design counters: metric suffix -> stats counter name.
SIM_COUNTERS = {
    "core.txn_admitted": "txn_admitted",
    "core.txn_conflict_waits": "txn_conflict_waits",
    "core.coalesced_fetches": "coalesced_fetches",
    "core.invalidations_sent": "invalidations_sent",
    "core.false_invalidations": "false_invalidations",
    "core.pending_table_peak": "pending_table_peak",
    "switchsim.recirculations": "recirculations",
    "switchsim.match_action_rules": "match_action_rules",
    "multirack.spine_forwards": "spine_forwards",
    "alloc.alloc_ops": "alloc_ops",
}

#: counters that are peaks, so points combine by max rather than by sum.
PEAK_COUNTERS = ("pending_table_peak",)

#: ``fault_path`` breakdown components (simulated time, summed over points).
FAULT_PATH_COMPONENTS = (
    "request",
    "pipeline",
    "recirculate",
    "fetch",
    "invalidation",
    "fetch+invalidation",
    "queue_conflict",
    "coalesced_wait",
    "spine",
    "reply",
)

#: profile buckets, first match wins; paths are relative to the package.
LAYER_PATHS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.engine", ("sim/engine.py",)),
    ("sim.network", ("sim/network.py", "sim/rdma.py")),
    ("sim.stats", ("sim/stats.py",)),
    (
        "core.txn",
        (
            "core/coherence.py",
            "core/txn.py",
            "core/fetch.py",
            "core/invalidation.py",
            "core/stt.py",
        ),
    ),
    ("core.directory", ("core/directory.py", "core/bounded_splitting.py")),
    (
        "core.control",
        (
            "core/controller.py",
            "core/mmu.py",
            "core/protection.py",
            "core/vma.py",
            "core/addressing.py",
            "core/migration.py",
            "core/failures.py",
        ),
    ),
    ("switchsim", ("switchsim/",)),
    ("blades", ("blades/",)),
    ("workloads", ("workloads/",)),
    ("alloc", ("alloc/",)),
    ("multirack", ("multirack/",)),
    ("service", ("service/",)),
    ("faults", ("faults/",)),
    ("telemetry", ("telemetry/", "obs/")),
)
LAYERS = tuple(name for name, _ in LAYER_PATHS) + ("other",)

#: plain (non-generator) functions whose call counts the traced run reports:
#: metric suffix -> (module path, function name).  Generators are left out
#: because cProfile counts every resume of a generator as a call.  The timer
#: store is counted at ``_push_timer``/``_timer_pop``: no workload calls the
#: public ``Engine.timeout``/``Engine.schedule`` (0 calls in every one).
CALL_SITES = {
    "sim.engine.process": ("sim/engine.py", "process"),
    "sim.engine.push_timer": ("sim/engine.py", "_push_timer"),
    "sim.engine.timer_pop": ("sim/engine.py", "_timer_pop"),
    "sim.network.try_leg": ("sim/network.py", "try_leg"),
    "core.directory.find": ("core/directory.py", "find"),
    "core.control.grant": ("core/protection.py", "grant"),
    "switchsim.tcam.lookup": ("switchsim/tcam.py", "lookup"),
    "switchsim.tcam.coalesce": ("switchsim/tcam.py", "coalesce"),
    "blades.consume_hit_run": ("blades/cache.py", "consume_hit_run"),
    "alloc.allocate": ("alloc/policy.py", "allocate"),
    "sim.stats.record_latency": ("sim/stats.py", "record_latency"),
    "telemetry.record_latency": ("telemetry/windows.py", "record_latency"),
}

#: layer microbenchmarks (``layers.py``): (name, unit).
MICRO: List[Tuple[str, str]] = [
    ("micro.engine.timeout_ns", "ns"),
    ("micro.engine.process_ns", "ns"),
    ("micro.engine.timer_10_ns", "ns"),
    ("micro.engine.timer_1k_ns", "ns"),
    ("micro.engine.timer_100k_ns", "ns"),
    ("micro.network.leg_ns", "ns"),
    ("micro.core.fault_ns", "ns"),
    ("micro.core.directory_find_ns", "ns"),
    ("micro.switchsim.tcam_lookup_64_ns", "ns"),
    ("micro.switchsim.tcam_lookup_1k_ns", "ns"),
    ("micro.core.protection_grant_revoke_us", "us"),
    ("micro.alloc.first-fit_op_ns", "ns"),
    ("micro.alloc.slab_op_ns", "ns"),
    ("micro.alloc.buddy_op_ns", "ns"),
    ("micro.alloc.arena_op_ns", "ns"),
    ("micro.alloc.bump_op_ns", "ns"),
    ("micro.blades.hit_run_ns", "ns"),
    ("micro.sim.stats.record_ns", "ns"),
    ("micro.telemetry.histogram_record_ns", "ns"),
    ("micro.telemetry.timeline_record_ns", "ns"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric a traced run emits: (name, unit, better)."""
    out = [(f"kernel.{name}", "count", _kernel_better(name)) for name in KERNEL_COUNTERS]
    out.append(("kernel.events_per_access", "ratio", "lower"))
    out.append(("sim.blades.hit_ratio", "ratio", "higher"))
    out += [
        (f"sim.{name}", "count", "higher" if name == "core.coalesced_fetches" else "lower")
        for name in SIM_COUNTERS
    ]
    out += [
        (f"sim.fault_path.{_component_metric(c)}_us", "us", "lower")
        for c in FAULT_PATH_COMPONENTS
    ]
    out += [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    out += [(f"calls.{name}", "count", "lower") for name in CALL_SITES]
    out.append(("trace_overhead", "ratio", "lower"))
    out += [(name, unit, "lower") for name, unit in MICRO]
    return out


def _kernel_better(name: str) -> str:
    # Fast-path hits replace scheduler round-trips; everything else is work.
    fast_paths = (
        "inline_clock_advances",
        "inline_continuations",
        "subtasks_fused",
        "batched_retires",
    )
    return "higher" if name in fast_paths else "lower"


def _component_metric(component: str) -> str:
    return component.replace("+", "_")
