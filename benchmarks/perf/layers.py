"""Layer microbenchmarks: host time per operation of one layer, best of R.

Each benchmark builds its fixture outside the timed region, then times a
batch of ``n`` operations through the layer's own API.  ``--quick`` shrinks
the batches so the whole set fits inside one traced benchmark run.

    PYTHONPATH=src python benchmarks/perf/layers.py [--reps 7] [--quick]

Prints one line per metric and, as the last line, a JSON object
``{name: {"value": ..., "unit": ...}}``.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from workloads import MICRO

#: a benchmark: given a batch size, build the fixture and return the timed
#: body (which runs the batch and returns the number of operations done).
Bench = Callable[[int], Callable[[], int]]

PAGE = 4096


def _engine_timeout(n: int) -> Callable[[], int]:
    from repro.sim.engine import Engine

    engine = Engine()

    def waiter():
        for _ in range(n):
            yield engine.timeout(1.0)

    engine.process(waiter())

    def body() -> int:
        engine.run()
        return n

    return body


def _engine_process(n: int) -> Callable[[], int]:
    from repro.sim.engine import Engine

    engine = Engine()

    def body():
        return
        yield  # a generator that finishes on its first resume

    def spawn_all() -> int:
        for _ in range(n):
            engine.process(body())
        engine.run()
        return n

    return spawn_all


def _timer_hold(pending: int) -> Bench:
    """Hold model: ``pending`` timers stay parked; every pop pushes one."""

    def build(n: int) -> Callable[[], int]:
        from repro.sim.engine import Engine

        engine = Engine()
        rng = random.Random(pending)
        # Mean delay == pending, so about one timer fires per simulated us.
        delays = [rng.expovariate(1.0 / pending) + 1e-3 for _ in range(4096)]
        schedule = engine.schedule
        cursor = [0]

        def fire() -> None:
            i = cursor[0] = cursor[0] + 1
            schedule(delays[i & 4095], fire)

        for i in range(pending):
            schedule(delays[i & 4095], fire)

        def body() -> int:
            before = engine.events_executed
            engine.run(until=engine.now + n)
            return engine.events_executed - before

        return body

    return build


def _network_leg(n: int) -> Callable[[], int]:
    from repro.sim.engine import Engine
    from repro.sim.network import CONTROL_MSG_BYTES, Link, NetworkConfig

    link = Link(Engine(), NetworkConfig(), "bench")

    def body() -> int:
        leg = link.try_leg
        for _ in range(n):
            if leg(CONTROL_MSG_BYTES) < 0.0:
                raise RuntimeError("idle link refused the fast leg")
        return n

    return body


def _core_fault(n: int) -> Callable[[], int]:
    from repro.api import MindSystem

    system = MindSystem(
        num_compute_blades=1, num_memory_blades=1, cache_capacity_pages=2 * n, store_data=False
    )
    proc = system.spawn_process("bench")
    base = proc.mmap(n * PAGE)
    thread = proc.spawn_thread()

    def body() -> int:
        touch = thread.touch
        for i in range(n):
            touch(base + i * PAGE)
        return n

    return body


def _directory_find(n: int) -> Callable[[], int]:
    from repro.core.directory import RegionDirectory
    from repro.switchsim.sram import RegisterArray

    directory = RegionDirectory(RegisterArray(30_000))
    stride = directory.initial_region_size
    for i in range(4096):
        directory.ensure_region(i * stride)
    rng = random.Random(7)
    vas = [rng.randrange(4096 * stride) for _ in range(1024)]

    def body() -> int:
        find = directory.find
        for i in range(n):
            find(vas[i & 1023])
        return n

    return body


def _tcam_lookup(entries: int) -> Bench:
    def build(n: int) -> Callable[[], int]:
        from repro.switchsim.tcam import Tcam

        tcam = Tcam(capacity=entries)
        for i in range(entries):
            tcam.insert_prefix(i * 2 * PAGE, PAGE, i)
        rng = random.Random(entries)
        keys = [rng.randrange(entries) * 2 * PAGE for _ in range(256)]

        def body() -> int:
            lookup = tcam.lookup
            for i in range(n):
                lookup(keys[i & 255])
            return n

        return body

    return build


def _protection_grant_revoke(n: int) -> Callable[[], int]:
    from repro.core.protection import ProtectionTable
    from repro.core.vma import PermissionClass, Vma
    from repro.switchsim.tcam import Tcam

    table = ProtectionTable(Tcam(capacity=45_000))
    rw = PermissionClass.READ_WRITE
    # 32 live grants with gaps between them, so none coalesce away.
    for i in range(32):
        table.grant(1, Vma(i * 8 * PAGE, 4 * PAGE, 1, rw), rw)
    extra = Vma(32 * 8 * PAGE, 3 * PAGE, 1, rw)

    def body() -> int:
        for _ in range(n):
            table.grant(1, extra, rw)
            table.revoke(1, extra.base)
        return n

    return body


def _alloc_ops(policy: str) -> Bench:
    """Allocate/free pairs around 32 live blocks of the churn 'mixed' sizes."""

    def build(n: int) -> Callable[[], int]:
        from repro.alloc import make_policy

        alloc = make_policy(policy, 0, 1 << 34)
        cls = type(alloc)
        rng = random.Random(11)
        sizes = []
        for _ in range(1024):
            lo, hi = (32 << 10, 1 << 20) if rng.random() < 0.25 else (256, 16 << 10)
            size = int(lo * (hi / lo) ** rng.random())
            padded = cls.padded_size(size)
            sizes.append((padded, cls.alignment_for(padded), size))
        victims = [rng.randrange(32) for _ in range(1024)]
        live = [alloc.allocate(*sizes[i], owner=0) for i in range(32)]

        def body() -> int:
            allocate, free = alloc.allocate, alloc.free
            for i in range(n):
                j = victims[i & 1023]
                free(live[j])
                padded, align, size = sizes[i & 1023]
                live[j] = allocate(padded, align, size, 0)
            return 2 * n

        return body

    return build


def _hit_run(n: int) -> Callable[[], int]:
    from repro.blades.cache import PageCache

    cache = PageCache(1024)
    for i in range(1024):
        cache.insert(i * PAGE, None, writable=True)
    rng = random.Random(3)
    vas = array("q", (rng.randrange(1024) * PAGE for _ in range(n)))
    writes = bytes(rng.random() < 0.3 for _ in range(n))

    def body() -> int:
        end, _debt = cache.consume_hit_run(vas, writes, 0, n, 0.0, float("inf"), 0.01)
        if end != n:
            raise RuntimeError("hit run stopped early")
        return n

    return body


def _stats_record(n: int) -> Callable[[], int]:
    from repro.sim.stats import StatsCollector

    stats = StatsCollector()
    rng = random.Random(5)
    values = [rng.uniform(2.0, 40.0) for _ in range(1024)]

    def body() -> int:
        record = stats.record_latency
        for i in range(n):
            record("fault", values[i & 1023])
        return n

    return body


def _histogram_record(n: int) -> Callable[[], int]:
    from repro.telemetry.histogram import LogHistogram

    hist = LogHistogram()
    rng = random.Random(5)
    values = [rng.uniform(2.0, 40.0) for _ in range(1024)]

    def body() -> int:
        record = hist.record
        for i in range(n):
            record(values[i & 1023])
        return n

    return body


def _timeline_record(n: int) -> Callable[[], int]:
    from repro.telemetry.windows import MetricsTimeline

    timeline = MetricsTimeline(500.0)
    rng = random.Random(5)
    values = [rng.uniform(2.0, 40.0) for _ in range(1024)]

    def body() -> int:
        record = timeline.record_latency
        for i in range(n):
            record(i * 0.5, "fault", values[i & 1023])
        return n

    return body


#: name -> (bench, batch size, quick batch size, seconds-per-op scale).
BENCHES: Dict[str, Tuple[Bench, int, int, float]] = {
    "micro.engine.timeout_ns": (_engine_timeout, 100_000, 20_000, 1e9),
    "micro.engine.process_ns": (_engine_process, 50_000, 10_000, 1e9),
    "micro.engine.timer_10_ns": (_timer_hold(10), 100_000, 20_000, 1e9),
    "micro.engine.timer_1k_ns": (_timer_hold(1_000), 100_000, 20_000, 1e9),
    "micro.engine.timer_100k_ns": (_timer_hold(100_000), 200_000, 40_000, 1e9),
    "micro.network.leg_ns": (_network_leg, 200_000, 40_000, 1e9),
    "micro.core.fault_ns": (_core_fault, 2_000, 400, 1e9),
    "micro.core.directory_find_ns": (_directory_find, 200_000, 40_000, 1e9),
    "micro.switchsim.tcam_lookup_64_ns": (_tcam_lookup(64), 20_000, 4_000, 1e9),
    "micro.switchsim.tcam_lookup_1k_ns": (_tcam_lookup(1024), 2_000, 400, 1e9),
    "micro.core.protection_grant_revoke_us": (_protection_grant_revoke, 500, 100, 1e6),
    "micro.alloc.first-fit_op_ns": (_alloc_ops("first-fit"), 20_000, 4_000, 1e9),
    "micro.alloc.slab_op_ns": (_alloc_ops("slab"), 20_000, 4_000, 1e9),
    "micro.alloc.buddy_op_ns": (_alloc_ops("buddy"), 20_000, 4_000, 1e9),
    "micro.alloc.arena_op_ns": (_alloc_ops("arena"), 20_000, 4_000, 1e9),
    "micro.alloc.bump_op_ns": (_alloc_ops("bump"), 20_000, 4_000, 1e9),
    "micro.blades.hit_run_ns": (_hit_run, 200_000, 40_000, 1e9),
    "micro.sim.stats.record_ns": (_stats_record, 200_000, 40_000, 1e9),
    "micro.telemetry.histogram_record_ns": (_histogram_record, 200_000, 40_000, 1e9),
    "micro.telemetry.timeline_record_ns": (_timeline_record, 200_000, 40_000, 1e9),
}


def measure(name: str, reps: int, quick: bool) -> float:
    """Best-of-``reps`` host time per operation, fresh fixture per rep."""
    bench, batch, quick_batch, scale = BENCHES[name]
    n = quick_batch if quick else batch
    best = float("inf")
    for _ in range(reps):
        body = bench(n)
        t0 = perf_counter()
        ops = body()
        elapsed = perf_counter() - t0
        best = min(best, elapsed / ops)
    return best * scale


def run_all(reps: int, quick: bool) -> Dict[str, dict]:
    return {name: {"value": measure(name, reps, quick), "unit": unit} for name, unit in MICRO}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7, help="best of this many (default 7)")
    parser.add_argument("--quick", action="store_true", help="smaller batches")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    results = run_all(args.reps, args.quick)
    for name, metric in results.items():
        print(f"  {name:<42} {metric['value']:>12.1f} {metric['unit']}")
    sys.stdout.write(json.dumps(results) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
