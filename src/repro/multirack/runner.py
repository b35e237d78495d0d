"""Scenario driver: a seeded multi-rack workload -> :class:`RunResult`.

One scenario run builds a fabric, maps one shared page pool per rack,
and replays a seeded access stream on every blade thread where a
configurable ``cross_fraction`` of accesses target pages homed on
*other* racks.  The router records every fault's latency under
``fault:intra`` / ``fault:cross``, so a sweep over ``racks`` exposes the
directory-sharding crossover -- where cross-rack sharing erases the
in-network directory's win -- directly in the sweep document's metrics.

Everything is derived from :func:`~repro.workloads.trace.stable_seed`,
so a scenario point is byte-identical no matter which worker process
executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from ..blades.consistency import ConsistencyModel
from ..core.mmu import MindConfig
from ..sim.network import NetworkConfig, PAGE_SIZE
from ..sim.stats import RunResult
from ..workloads.openloop import ArrivalSpec, open_loop_thread, thread_arrival_seed
from ..workloads.trace import AccessStream, stable_seed
from .config import MultiRackConfig
from .fabric import MultiRackFabric


@dataclass
class MultiRackScenarioConfig:
    """One multi-rack scenario point (the ``multirack`` sweep workload)."""

    racks: int = 2
    compute_blades_per_rack: int = 2
    memory_blades_per_rack: int = 1
    threads_per_blade: int = 1
    cache_capacity_pages: int = 512
    #: accesses each thread replays.
    accesses_per_thread: int = 400
    #: fraction of accesses targeting pages homed on *other* racks.
    cross_fraction: float = 0.2
    read_ratio: float = 0.7
    #: shared pool pages mapped per rack (every blade may touch them all).
    pages_per_rack: int = 256
    seed: int = 1
    spine_extra_us: float = 3.4
    oversubscription: float = 4.0
    #: open-loop arrival process ("poisson"/"diurnal"); closed loop if None.
    arrival_process: Optional[str] = None
    arrival_rate_per_thread: float = 0.02
    request_size: int = 8
    diurnal_period_us: float = 20_000.0
    diurnal_amplitude: float = 0.5
    telemetry: bool = False
    #: allocation-policy axis for every rack switch (None = unmodeled
    #: first-fit, the bit-identical default).
    allocator: Optional[str] = None

    def fabric_config(self) -> MultiRackConfig:
        return MultiRackConfig(
            num_racks=self.racks,
            compute_blades_per_rack=self.compute_blades_per_rack,
            memory_blades_per_rack=self.memory_blades_per_rack,
            cache_capacity_pages=self.cache_capacity_pages,
            spine_extra_us=self.spine_extra_us,
            oversubscription=self.oversubscription,
            telemetry=self.telemetry,
            mind=MindConfig(
                memory_blade_capacity=1 << 28,
                enable_bounded_splitting=False,
                allocator=self.allocator,
            ),
            network=NetworkConfig(),
        )

    def arrival_spec(self) -> Optional[ArrivalSpec]:
        if self.arrival_process is None:
            return None
        return ArrivalSpec(
            process=self.arrival_process,
            rate_per_us=self.arrival_rate_per_thread,
            request_size=self.request_size,
            period_us=self.diurnal_period_us,
            amplitude=self.diurnal_amplitude,
        )


def config_from_params(params: Dict, **overrides) -> MultiRackScenarioConfig:
    """Build a scenario config from loose sweep params, rejecting unknowns."""
    known = {f.name for f in fields(MultiRackScenarioConfig)}
    merged = dict(params)
    merged.update(overrides)
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ValueError(
            f"unknown multirack scenario parameter(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return MultiRackScenarioConfig(**merged)


def _thread_stream(
    config: MultiRackScenarioConfig,
    bases: List[int],
    home_rack: int,
    blade_id: int,
    thread_id: int,
) -> AccessStream:
    """Seeded access stream for one blade thread.

    Each access picks its page pool (home rack with probability
    ``1 - cross_fraction``, a uniformly random *other* rack otherwise),
    a page uniform in the pool, and a write with probability
    ``1 - read_ratio``.
    """
    rng = np.random.default_rng(
        stable_seed("multirack", config.seed, blade_id, thread_id)
    )
    n = config.accesses_per_thread
    if config.racks > 1:
        cross = rng.random(n) < config.cross_fraction
        other = rng.integers(0, config.racks - 1, n)
        other = np.where(other >= home_rack, other + 1, other)
        racks = np.where(cross, other, home_rack)
    else:
        racks = np.zeros(n, dtype=np.int64)
    pages = rng.integers(0, config.pages_per_rack, n)
    writes = rng.random(n) >= config.read_ratio
    vas = np.asarray(bases, dtype=np.int64)[racks] + pages * PAGE_SIZE
    return AccessStream.from_numpy(vas, writes)


def run_multirack(config: MultiRackScenarioConfig) -> RunResult:
    """Execute one scenario point; deterministic in ``config`` alone."""
    fabric = MultiRackFabric(config.fabric_config())
    pdid = fabric.spawn_process("scale")
    pool_bytes = config.pages_per_rack * PAGE_SIZE
    bases = [
        fabric.mmap(pdid, pool_bytes, rack=r) for r in range(config.racks)
    ]
    arrival = config.arrival_spec()
    gens = []
    total = 0
    for blade in fabric.compute_blades:
        for t in range(config.threads_per_blade):
            stream = _thread_stream(config, bases, blade.home_rack, blade.blade_id, t)
            total += len(stream)
            if arrival is None:
                gens.append(blade.run_thread(pdid, stream))
            else:
                seed = thread_arrival_seed(
                    "multirack",
                    config.seed,
                    blade.blade_id * 10_000 + t,
                )
                gens.append(
                    open_loop_thread(
                        blade,
                        pdid,
                        stream,
                        arrival,
                        seed,
                        ConsistencyModel.TSO,
                        name=f"mr{blade.blade_id}.{t}",
                    )
                )
    fabric.run_all(gens)
    fabric.capture_telemetry()
    return RunResult(
        system="mind",
        workload="multirack",
        num_blades=len(fabric.compute_blades),
        num_threads=len(fabric.compute_blades) * config.threads_per_blade,
        runtime_us=fabric.engine.now,
        total_accesses=total,
        stats=fabric.stats,
        kernel_stats=fabric.engine.kernel_stats(),
    )
