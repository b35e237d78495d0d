"""Open-loop arrival driver: latency under load, not just makespan.

The closed-loop replay (:meth:`ComputeBlade.run_thread` over a whole
trace) issues the next access the moment the previous one retires -- the
right methodology for the paper's makespan/throughput figures, but it
cannot measure *latency under load*: a slow server throttles its own
offered load, hiding the queueing that an SLO would see.

This module adds the serving-systems methodology: requests arrive on a
deterministic schedule that does **not** react to service times.  Each
workload thread becomes a single-server queue --

- an *arrival process* (Poisson or diurnally modulated Poisson) emits
  request arrival times up front, as a pure function of the workload
  seed;
- a dispatcher simulation process releases one request per arrival,
  whether or not earlier requests have finished;
- each request replays the next ``request_size`` accesses of the
  thread's trace through the normal fault path, behind a capacity-1
  worker resource, so the queueing delay (arrival -> service start) is
  captured explicitly.

Recorded latency categories: ``openloop:queue`` (time waiting for the
worker), ``openloop:service`` (trace replay time), ``openloop:latency``
(arrival to completion -- the end-to-end number SLOs are written
against), plus ``openloop_arrivals``/``openloop_completions`` counters.
All but ``openloop:service`` also land in the windowed timeline when
telemetry is on.

Determinism: arrival schedules derive from ``stable_seed`` exactly like
trace generation, so the same (workload, seed, thread) triple always
produces the same arrivals -- across processes, platforms and ``--jobs``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, List, Optional

from ..sim.engine import Resource
from ..sim.rng import make_rng
from .trace import AccessStream, stable_seed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..blades.compute import ComputeBlade
    from ..blades.consistency import ConsistencyModel
    from ..sim.stats import StatsCollector

#: supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "diurnal")

#: piecewise-constant slots per diurnal period (the sinusoid is sampled
#: at slot starts; a continuous rate would need root-finding and buy no
#: additional fidelity at simulation scale).
DIURNAL_SLOTS = 32


@dataclass(frozen=True)
class ArrivalSpec:
    """A deterministic open-loop arrival schedule."""

    #: one of :data:`ARRIVAL_PROCESSES`.
    process: str = "poisson"
    #: mean request arrival rate per thread, in requests per simulated us.
    rate_per_us: float = 0.02
    #: trace accesses consumed per request.
    request_size: int = 8
    #: diurnal modulation period (ignored for plain Poisson).
    period_us: float = 20_000.0
    #: diurnal peak-to-mean swing in [0, 1): rate(t) = mean * (1 + A sin).
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )
        if self.rate_per_us <= 0:
            raise ValueError("arrival rate must be positive")
        if self.request_size < 1:
            raise ValueError("request_size must be >= 1")
        if self.period_us <= 0:
            raise ValueError("diurnal period must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("diurnal amplitude must be in [0, 1)")


def arrival_times(spec: ArrivalSpec, num_requests: int, seed: int) -> "array[float]":
    """The request arrival schedule: ``num_requests`` ascending times.

    A pure function of ``(spec, num_requests, seed)``.  Poisson draws
    exponential inter-arrival gaps; the diurnal process rescales
    unit-rate exponential increments through a piecewise-constant
    sinusoidal rate profile (the standard inhomogeneous-Poisson
    time-rescaling construction, exact for a piecewise-constant rate).
    """
    rng = make_rng(seed)
    if num_requests <= 0:
        return array("d")
    if spec.process == "poisson":
        gaps = rng.exponential(1.0 / spec.rate_per_us, size=num_requests)
        out = array("d")
        t = 0.0
        for gap in gaps.tolist():
            t += gap
            out.append(t)
        return out
    # Diurnal: consume unit-rate exponential "work" through rate slots.
    slot_us = spec.period_us / DIURNAL_SLOTS
    rates = [
        spec.rate_per_us
        * (1.0 + spec.amplitude * math.sin(2.0 * math.pi * i / DIURNAL_SLOTS))
        for i in range(DIURNAL_SLOTS)
    ]
    increments = rng.exponential(1.0, size=num_requests)
    out = array("d")
    t = 0.0
    for remaining in increments.tolist():
        while True:
            slot_index = int(t / slot_us)
            rate = rates[slot_index % DIURNAL_SLOTS]
            slot_end = (slot_index + 1) * slot_us
            capacity = rate * (slot_end - t)
            if remaining <= capacity:
                t += remaining / rate
                break
            remaining -= capacity
            t = slot_end
        out.append(t)
    return out


def open_loop_thread(
    blade: "ComputeBlade",
    pdid: int,
    stream: AccessStream,
    spec: ArrivalSpec,
    seed: int,
    consistency: "ConsistencyModel",
    name: str = "openloop",
) -> Generator:
    """Dispatcher process: one thread's open-loop request schedule.

    Releases a request at every arrival time regardless of earlier
    requests' progress; requests execute behind a capacity-1 named
    worker resource (so queueing shows up in the hotspot report too) and
    the dispatcher joins them all before returning.
    """
    engine = blade.engine
    stats: "StatsCollector" = blade.stats
    size = spec.request_size
    num_requests = -(-len(stream) // size)
    arrivals = arrival_times(spec, num_requests, seed)
    # Arrival times are relative to the *dispatcher's* start, not absolute
    # simulation time: a serving thread added mid-run (elastic capacity)
    # starts its schedule fresh instead of releasing every "past-due"
    # arrival as one thundering-herd burst.  Threads started at t=0 (the
    # whole-run case) are unaffected.
    t_start = engine.now
    worker = Resource(engine, capacity=1, name=f"{name}.worker")
    procs: List = []
    for r in range(num_requests):
        at = t_start + arrivals[r]
        if at > engine.now:
            yield at - engine.now
        stats.incr("openloop_arrivals", t=engine.now)
        sub = stream.slice(r * size, (r + 1) * size)
        procs.append(
            engine.process(
                _request(blade, pdid, sub, worker, consistency),
                name=f"{name}.req{r}",
            )
        )
    if procs:
        yield engine.all_of(procs)
    return len(stream)


def _request(
    blade: "ComputeBlade",
    pdid: int,
    accesses: AccessStream,
    worker: Resource,
    consistency: "ConsistencyModel",
) -> Generator:
    """One request: queue for the worker, replay its trace slice."""
    engine = blade.engine
    stats = blade.stats
    t_arrival = engine.now
    wait = yield worker.acquire()
    try:
        yield from blade.run_thread(pdid, accesses, consistency=consistency)
    finally:
        worker.release()
    t_done = engine.now
    total = t_done - t_arrival
    stats.record_latency("openloop:queue", wait, t=t_done)
    stats.record_latency("openloop:service", total - wait)
    stats.record_latency("openloop:latency", total, t=t_done)
    stats.incr("openloop_completions", t=t_done)


def spec_from_config(config) -> Optional[ArrivalSpec]:
    """Build an :class:`ArrivalSpec` from a RunnerConfig, or None when the
    run is closed-loop (``arrival_process`` unset)."""
    if config.arrival_process is None:
        return None
    return ArrivalSpec(
        process=str(config.arrival_process),
        rate_per_us=config.arrival_rate_per_thread,
        request_size=config.request_size,
        period_us=config.diurnal_period_us,
        amplitude=config.diurnal_amplitude,
    )


def thread_arrival_seed(workload_name: str, workload_seed: int, thread_id: int) -> int:
    """Stable arrival-schedule seed for one workload thread."""
    return stable_seed(workload_name, workload_seed, "openloop", thread_id)
