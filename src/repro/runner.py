"""Workload runner: replay a trace workload on any of the evaluated systems.

This is the harness behind every scaling figure: it builds a fresh cluster
of the requested system, performs the workload's allocations, binds the
deterministic per-thread traces, runs all threads concurrently in simulated
time, and returns a :class:`repro.sim.stats.RunResult` whose
``runtime_us`` / ``throughput_iops`` / counters are what the figures plot.

Systems (Section 7's comparison set):

- ``mind``       -- MIND under TSO (the hardware-realizable configuration).
- ``mind-pso``   -- MIND with the simulated PSO relaxation (Fig. 5 center).
- ``mind-pso+``  -- PSO plus an effectively infinite switch directory.
- ``mind-mesi``  -- extension: MIND running the MESI STT (Section 8).
- ``mind-moesi`` -- extension: MOESI with cache-to-cache transfers (Section 8).
- ``gam``        -- the software-DSM baseline.
- ``fastswap``   -- the single-blade swap baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .baselines.fastswap import FastSwapSystem
from .baselines.gam import GamSystem
from .blades.consistency import ConsistencyModel
from .cluster import ClusterConfig, MindCluster
from .core.mmu import MindConfig
from .sim.network import PAGE_SIZE, NetworkConfig
from .sim.stats import RunResult
from .workloads.openloop import (
    open_loop_thread,
    spec_from_config,
    thread_arrival_seed,
)
from .workloads.trace import TraceWorkload

SYSTEMS = ("mind", "mind-pso", "mind-pso+", "mind-mesi", "mind-moesi", "gam", "fastswap")


@dataclass
class RunnerConfig:
    """Cluster sizing knobs shared by all systems for a fair comparison."""

    num_memory_blades: int = 4
    #: cache per compute blade as a fraction of the workload footprint
    #: (the paper emulates partial disaggregation at ~25 %).
    cache_fraction: float = 0.25
    #: hard override for the per-blade cache, in pages.
    cache_capacity_pages: Optional[int] = None
    memory_blade_capacity: int = 1 << 34
    network: Optional[NetworkConfig] = None
    mind: Optional[MindConfig] = None
    #: store page payloads (off for trace replay: timings don't need bytes).
    store_data: bool = False
    #: Bounded Splitting epoch for replays.  The paper's epoch is 100 ms
    #: against minutes-long workloads; our traces run for milliseconds, so
    #: the epoch is compressed proportionally (time-scale compression --
    #: documented in EXPERIMENTS.md).  None keeps the MindConfig default.
    epoch_us: Optional[float] = 5_000.0
    #: enable observability: event tracing + gauge sampling.  The tracer is
    #: attached to the returned RunResult as ``result.trace``.
    trace: bool = False
    #: tracer ring-buffer capacity when tracing is enabled.
    trace_capacity: int = 1 << 16
    #: enable windowed telemetry: per-window latency percentiles (p50/p99/
    #: p99.9/max), counter deltas, gauge samples and fault-phase
    #: attribution, surfaced as the report's ``timeline``/``slo`` sections.
    telemetry: bool = False
    #: open-loop arrival process ("poisson" or "diurnal"); None replays
    #: the trace closed-loop as the scaling figures do.  MIND systems
    #: only: latency-under-load is measured against the switch data path.
    arrival_process: Optional[str] = None
    #: mean open-loop arrival rate per thread (requests per simulated us).
    arrival_rate_per_thread: float = 0.02
    #: trace accesses consumed per open-loop request.
    request_size: int = 8
    #: diurnal modulation period / amplitude (ignored for plain Poisson).
    diurnal_period_us: float = 20_000.0
    diurnal_amplitude: float = 0.5
    #: allocation-policy axis ("first-fit", "slab", "buddy", "arena",
    #: "bump").  MIND systems only: the policy runs on the switch control
    #: CPU.  None keeps the default first-fit with cost modeling off (the
    #: bit-identical baseline path); any name activates modeling.
    allocator: Optional[str] = None
    #: fault schedule (a :class:`repro.faults.FaultPlan`) armed on the
    #: cluster before the workload starts.  MIND systems only -- the
    #: baselines have no switch to fail over.
    fault_plan: Optional[object] = None


def _base_mind(cfg: RunnerConfig) -> MindConfig:
    """The MindConfig a run starts from (applies epoch compression)."""
    if cfg.mind is not None:
        return cfg.mind
    if cfg.epoch_us is not None:
        return MindConfig(epoch_us=cfg.epoch_us)
    return MindConfig()


def _cache_pages(workload: TraceWorkload, cfg: RunnerConfig) -> int:
    if cfg.cache_capacity_pages is not None:
        return cfg.cache_capacity_pages
    footprint_pages = workload.footprint_bytes() // PAGE_SIZE
    return max(256, int(footprint_pages * cfg.cache_fraction))


def run_on_mind(
    workload: TraceWorkload,
    num_blades: int,
    config: Optional[RunnerConfig] = None,
    consistency: ConsistencyModel = ConsistencyModel.TSO,
    mind_config: Optional[MindConfig] = None,
    system_name: str = "MIND",
) -> RunResult:
    """Replay ``workload`` on a fresh MIND cluster of ``num_blades``."""
    cfg = config or RunnerConfig()
    mind = mind_config or _base_mind(cfg)
    if cfg.allocator is not None:
        mind = replace(mind, allocator=cfg.allocator)
    cluster_config = ClusterConfig(
        num_compute_blades=num_blades,
        num_memory_blades=cfg.num_memory_blades,
        cache_capacity_pages=_cache_pages(workload, cfg),
        store_data=cfg.store_data,
        mind=mind,
        network=cfg.network or NetworkConfig(),
        trace=cfg.trace,
        trace_capacity=cfg.trace_capacity,
        telemetry=cfg.telemetry,
    )
    cluster = MindCluster(cluster_config)
    controller = cluster.controller
    task = controller.sys_exec(workload.name)
    bases = [
        controller.sys_mmap(task.pid, spec.size_bytes)
        for spec in workload.region_specs()
    ]
    traces = workload.all_traces(bases)
    if cfg.fault_plan is not None:
        # Arm after mmap so scheduled faults hit a populated control plane.
        cluster.inject_faults(cfg.fault_plan)
    arrival_spec = spec_from_config(cfg)
    gens = []
    for trace in traces:
        thread = controller.place_thread(task.pid)
        blade = cluster.compute_blade(thread.blade_id)
        if arrival_spec is not None:
            gens.append(
                open_loop_thread(
                    blade,
                    task.pid,
                    trace.stream(),
                    arrival_spec,
                    thread_arrival_seed(
                        workload.name, workload.seed, trace.thread_id
                    ),
                    consistency,
                    name=f"openloop.t{trace.thread_id}",
                )
            )
        else:
            gens.append(
                blade.run_thread(task.pid, trace.stream(), consistency=consistency)
            )
    cluster.run_all(gens)
    total = sum(len(t) for t in traces)
    # Stash switch-resource and queueing telemetry the figures/reports need.
    cluster.capture_telemetry()
    return RunResult(
        system=system_name,
        workload=workload.name,
        num_blades=num_blades,
        num_threads=workload.num_threads,
        runtime_us=cluster.engine.now,
        total_accesses=total,
        stats=cluster.stats,
        trace=cluster.tracer if cfg.trace else None,
        kernel_stats=cluster.engine.kernel_stats(),
    )


def run_system(
    system: str,
    workload: TraceWorkload,
    num_blades: int,
    config: Optional[RunnerConfig] = None,
) -> RunResult:
    """Dispatch a run to one of the evaluated systems by name."""
    cfg = config or RunnerConfig()
    key = system.lower()
    if cfg.fault_plan is not None and key in ("gam", "fastswap"):
        raise ValueError(
            f"fault plans target the MIND switch; {system!r} has no switch "
            "data plane to fail over"
        )
    if cfg.arrival_process is not None and key in ("gam", "fastswap"):
        raise ValueError(
            "open-loop arrival processes measure latency-under-load against "
            f"the MIND data path; {system!r} only replays closed-loop"
        )
    if cfg.allocator is not None and key in ("gam", "fastswap"):
        raise ValueError(
            "the allocator axis selects the MIND switch's allocation "
            f"policy; {system!r} has no in-network allocator"
        )
    if key == "mind":
        return run_on_mind(workload, num_blades, cfg)
    if key == "mind-pso":
        return run_on_mind(
            workload,
            num_blades,
            cfg,
            consistency=ConsistencyModel.PSO,
            system_name="MIND-PSO",
        )
    if key == "mind-pso+":
        big_directory = replace(_base_mind(cfg), directory_capacity=10_000_000)
        return run_on_mind(
            workload,
            num_blades,
            cfg,
            consistency=ConsistencyModel.PSO,
            mind_config=big_directory,
            system_name="MIND-PSO+",
        )
    if key == "mind-mesi":
        mesi = replace(_base_mind(cfg), protocol="mesi")
        return run_on_mind(
            workload, num_blades, cfg, mind_config=mesi, system_name="MIND-MESI"
        )
    if key == "mind-moesi":
        moesi = replace(_base_mind(cfg), protocol="moesi")
        return run_on_mind(
            workload, num_blades, cfg, mind_config=moesi, system_name="MIND-MOESI"
        )
    if key == "gam":
        gam = GamSystem(
            num_blades=num_blades,
            num_memory_blades=cfg.num_memory_blades,
            cache_capacity_pages=_cache_pages(workload, cfg),
            network_config=cfg.network,
            memory_blade_capacity=cfg.memory_blade_capacity,
        )
        return gam.run_workload(workload)
    if key == "fastswap":
        if num_blades != 1:
            raise ValueError(
                "FastSwap does not share memory across compute blades "
                "(Section 2.2); it only has single-blade data points"
            )
        fastswap = FastSwapSystem(
            num_memory_blades=cfg.num_memory_blades,
            cache_capacity_pages=_cache_pages(workload, cfg),
            network_config=cfg.network,
            memory_blade_capacity=cfg.memory_blade_capacity,
        )
        return fastswap.run_workload(workload)
    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")


def scaling_sweep(
    system: str,
    workload_factory,
    blade_counts: List[int],
    threads_per_blade: int,
    config: Optional[RunnerConfig] = None,
) -> Dict[int, RunResult]:
    """Run a workload at several blade counts (the Fig. 5 sweeps).

    ``workload_factory(num_threads)`` builds the workload sized for each
    point; per the paper, each blade runs ``threads_per_blade`` threads.
    """
    results: Dict[int, RunResult] = {}
    for blades in blade_counts:
        workload = workload_factory(blades * threads_per_blade)
        results[blades] = run_system(system, workload, blades, config)
    return results
