"""``python -m repro``: a one-minute tour, plus observability reports.

Subcommands:

- ``tour`` (default) -- build a small rack, demonstrate cross-blade
  coherent shared memory, and print the MSI transition latencies the paper
  reports in Fig. 7 (left).
- ``report`` -- replay a small synthetic workload with tracing enabled and
  print a per-run report: latency percentiles, the span-derived fault-path
  breakdown, queueing hotspots and switch-resource peaks.  Optionally
  export the event trace as Chrome trace-event JSON (``--trace-out``,
  loadable in ``chrome://tracing`` / Perfetto) or JSONL (``--jsonl-out``).
- ``sweep`` -- run a declarative experiment grid (systems x blade counts x
  workload knobs x seeds) across worker processes, aggregate the results
  into a schema-versioned JSON document, and optionally gate against a
  baseline (``--compare-to``).  See ``python -m repro sweep --help``.
- ``serve`` -- run the multi-tenant elastic-KVS serving scenario (open-loop
  diurnal tenants, admission control with retry-storm defense, a queue-depth
  autoscaler, optional chaos) and print per-tenant availability/SLO curves.

For the full evaluation, run ``pytest benchmarks/ --benchmark-only -s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .alloc import POLICIES as ALLOC_POLICIES
from .api import MindSystem
from .faults import FaultPlan
from .runner import SYSTEMS, RunnerConfig, run_system
from .multirack.cli import add_multirack_parser
from .service.cli import add_serve_parser
from .sweep.cli import add_sweep_parser
from .workloads import UniformSharingWorkload


def tour(_args: argparse.Namespace) -> int:
    print(__doc__)
    system = MindSystem(num_compute_blades=3, num_memory_blades=2)
    proc = system.spawn_process("tour")
    buf = proc.mmap(1 << 20)
    t0, t1, t2 = (proc.spawn_thread() for _ in range(3))

    t0.touch(buf)                 # I->S
    t1.touch(buf)                 # S->S
    t2.touch(buf, write=True)     # S->M (parallel invalidation)
    t0.touch(buf, write=True)     # M->M (ownership steal)
    t1.touch(buf)                 # M->S (owner downgrade)
    t0.write(buf, b"in-network coherent")
    assert t2.read(buf, 19) == b"in-network coherent"

    print("three compute blades share one coherent address space;")
    print("measured MSI transition latencies (paper: ~9 us / ~18 us):\n")
    for label in ("I->S", "S->S", "S->M", "M->M", "M->S"):
        summary = system.stats.latency_summary(f"fault:{label}")
        if summary.count:
            print(f"  {label:5s} {summary.mean:6.2f} us")
    print(
        f"\nswitch served {system.stats.counter('remote_accesses')} remote "
        f"accesses, {system.stats.counter('invalidations_sent')} "
        "invalidations -- all in the network fabric."
    )
    return 0


def _parse_window(spec: str, what: str, parts_min: int, parts_max: int) -> List[str]:
    parts = spec.split(":")
    if not parts_min <= len(parts) <= parts_max:
        raise SystemExit(
            f"bad --{what} {spec!r}: expected {parts_min}-{parts_max} "
            "colon-separated fields"
        )
    return parts


def build_fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """Assemble a FaultPlan from the report subcommand's fault flags.

    Window syntaxes (times in simulated microseconds):

    - ``--packet-loss START:END:PROB[:PORT]``
    - ``--delay-spike START:END:EXTRA_US[:PORT]``
    - ``--blade-slow BLADE:START:END[:FACTOR]``
    - ``--blade-crash BLADE:START:END``
    - ``--cpu-stall AT:DURATION``
    - ``--switch-crash-at AT``
    """
    plan = FaultPlan(seed=args.fault_seed)
    if args.switch_crash_at is not None:
        plan.switch_crash(args.switch_crash_at)
    for spec in args.packet_loss or ():
        parts = _parse_window(spec, "packet-loss", 3, 4)
        plan.packet_loss(
            float(parts[0]), float(parts[1]), float(parts[2]),
            port=parts[3] if len(parts) > 3 else None,
        )
    for spec in args.delay_spike or ():
        parts = _parse_window(spec, "delay-spike", 3, 4)
        plan.delay_spike(
            float(parts[0]), float(parts[1]), float(parts[2]),
            port=parts[3] if len(parts) > 3 else None,
        )
    for spec in args.blade_slow or ():
        parts = _parse_window(spec, "blade-slow", 3, 4)
        plan.blade_slow(
            int(parts[0]), float(parts[1]), float(parts[2]),
            factor=float(parts[3]) if len(parts) > 3 else 4.0,
        )
    for spec in args.blade_crash or ():
        parts = _parse_window(spec, "blade-crash", 3, 3)
        plan.blade_crash(int(parts[0]), float(parts[1]), float(parts[2]))
    for spec in args.cpu_stall or ():
        parts = _parse_window(spec, "cpu-stall", 2, 2)
        plan.cpu_stall(float(parts[0]), float(parts[1]))
    if not plan.events:
        return None
    return plan.validate()


def report(args: argparse.Namespace) -> int:
    fault_plan = build_fault_plan(args)
    telemetry = args.timeline or args.slo or args.open_loop is not None
    config = RunnerConfig(
        trace=True,
        trace_capacity=args.trace_capacity,
        telemetry=telemetry,
        arrival_process=args.open_loop,
        arrival_rate_per_thread=args.arrival_rate,
        request_size=args.request_size,
        allocator=args.allocator,
        fault_plan=fault_plan,
    )
    if fault_plan is not None:
        print("fault plan (seed %d):" % fault_plan.seed)
        for line in fault_plan.describe():
            print(f"  {line}")
        print()
    workload = UniformSharingWorkload(
        args.blades * args.threads_per_blade,
        accesses_per_thread=args.accesses,
        read_ratio=args.read_ratio,
        sharing_ratio=args.sharing_ratio,
        shared_pages=args.shared_pages,
        private_pages_per_thread=256,
        seed=args.seed,
        burst=4,
    )
    result = run_system(args.system, workload, args.blades, config)
    run_report = result.report()
    if args.json:
        print(json.dumps(run_report.to_json(), indent=2, sort_keys=True))
    else:
        print(run_report.render())
    if result.trace is None:
        if args.trace_out or args.jsonl_out:
            print(
                f"note: system {args.system!r} does not record traces; "
                "no trace files written",
                file=sys.stderr,
            )
        return 0
    if args.trace_out:
        result.trace.write_chrome_trace(
            args.trace_out, counter_series=dict(result.stats.timeseries)
        )
        print(
            f"\nwrote {len(result.trace)} trace events to {args.trace_out} "
            "(open in chrome://tracing or Perfetto)"
        )
    if args.jsonl_out:
        result.trace.write_jsonl(args.jsonl_out)
        print(f"wrote {len(result.trace)} records to {args.jsonl_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MIND reproduction: demo tour and run reports.",
    )
    sub = parser.add_subparsers(dest="command")

    tour_p = sub.add_parser("tour", help="coherent shared-memory demo (default)")
    tour_p.set_defaults(fn=tour)

    rep = sub.add_parser(
        "report", help="replay a small workload with tracing and print a report"
    )
    rep.add_argument("--system", default="mind", choices=SYSTEMS)
    rep.add_argument("--blades", type=int, default=4)
    rep.add_argument("--threads-per-blade", type=int, default=2)
    rep.add_argument("--accesses", type=int, default=1_000)
    rep.add_argument("--read-ratio", type=float, default=0.5)
    rep.add_argument("--sharing-ratio", type=float, default=0.5)
    rep.add_argument("--shared-pages", type=int, default=400)
    rep.add_argument("--seed", type=int, default=1)
    rep.add_argument(
        "--allocator",
        default=None,
        choices=sorted(ALLOC_POLICIES),
        help="model the switch allocation policy and charge its control-CPU "
        "cost (default: unmodeled first-fit; mind only)",
    )
    rep.add_argument("--trace-capacity", type=int, default=1 << 18)
    rep.add_argument("--json", action="store_true", help="emit the report as JSON")
    rep.add_argument("--trace-out", help="write a Chrome trace-event JSON file")
    rep.add_argument("--jsonl-out", help="write raw trace records as JSONL")
    telem = rep.add_argument_group(
        "telemetry", "windowed timelines, SLO burn rates and open-loop load"
    )
    telem.add_argument(
        "--timeline", action="store_true",
        help="record a windowed telemetry timeline and print it",
    )
    telem.add_argument(
        "--slo", action="store_true",
        help="evaluate the default SLO objectives against the timeline",
    )
    telem.add_argument(
        "--open-loop", choices=("poisson", "diurnal"), default=None,
        help="drive threads open-loop with this arrival process instead of "
        "closed-loop replay (implies telemetry)",
    )
    telem.add_argument(
        "--arrival-rate", type=float, default=0.02,
        help="open-loop mean arrivals per thread per simulated us",
    )
    telem.add_argument(
        "--request-size", type=int, default=8,
        help="trace accesses consumed per open-loop request",
    )
    fault = rep.add_argument_group(
        "fault injection", "deterministic fault schedule (times in simulated us)"
    )
    fault.add_argument(
        "--switch-crash-at", type=float, metavar="AT",
        help="crash the primary switch at AT (arms fail-over)",
    )
    fault.add_argument(
        "--packet-loss", action="append", metavar="START:END:PROB[:PORT]",
        help="drop packets with probability PROB during [START, END)",
    )
    fault.add_argument(
        "--delay-spike", action="append", metavar="START:END:EXTRA[:PORT]",
        help="add EXTRA us propagation delay during [START, END)",
    )
    fault.add_argument(
        "--blade-slow", action="append", metavar="BLADE:START:END[:FACTOR]",
        help="memory blade serves FACTORx slower during [START, END)",
    )
    fault.add_argument(
        "--blade-crash", action="append", metavar="BLADE:START:END",
        help="memory blade answers nothing during [START, END)",
    )
    fault.add_argument(
        "--cpu-stall", action="append", metavar="AT:DURATION",
        help="wedge the switch control CPU for DURATION us at AT",
    )
    fault.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for per-packet fault randomness (default 0)",
    )
    rep.set_defaults(fn=report)

    add_sweep_parser(sub)
    add_serve_parser(sub)
    add_multirack_parser(sub)

    parser.set_defaults(fn=tour)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
