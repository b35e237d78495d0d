"""``python -m repro multirack``: run one multi-rack scenario and report.

Prints the topology shape, the intra- vs cross-rack fault latency split
(the directory-sharding crossover the ``multirack-scale`` sweep charts
across rack counts), and the per-tier link accounting.
"""

from __future__ import annotations

from ..sim.stats import LatencySummary
from .runner import MultiRackScenarioConfig, run_multirack


def add_multirack_parser(sub) -> None:
    p = sub.add_parser(
        "multirack",
        help="multi-rack fabric scenario: sharded directories over a spine",
        description=(
            "Run the Section 8 multi-rack scenario: per-rack home switches "
            "sharding the coherence directory by VA range, cross-rack "
            "transactions forwarded over an oversubscribed spine tier.  "
            "Reports the intra- vs cross-rack fault latency split and "
            "per-tier link accounting."
        ),
    )
    p.add_argument("--racks", type=int, default=2)
    p.add_argument("--blades-per-rack", type=int, default=2)
    p.add_argument("--threads-per-blade", type=int, default=1)
    p.add_argument("--accesses", type=int, default=400,
                   help="accesses per thread (default 400)")
    p.add_argument("--cross-fraction", type=float, default=0.2,
                   help="fraction of accesses homed on other racks")
    p.add_argument("--read-ratio", type=float, default=0.7)
    p.add_argument("--pages-per-rack", type=int, default=256,
                   help="shared pool pages mapped per rack")
    p.add_argument("--cache-pages", type=int, default=512,
                   help="per-blade cache capacity in pages")
    p.add_argument("--oversubscription", type=float, default=4.0,
                   help="leaf-spine oversubscription ratio (default 4:1)")
    p.add_argument("--spine-extra", type=float, default=3.4,
                   help="extra one-way spine propagation in us")
    p.add_argument("--open-loop", choices=("poisson", "diurnal"), default=None,
                   help="drive threads with an open-loop arrival process")
    p.add_argument("--arrival-rate", type=float, default=0.02,
                   help="open-loop arrivals per thread per simulated us")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(fn=multirack)


def multirack(args) -> int:
    config = MultiRackScenarioConfig(
        racks=args.racks,
        compute_blades_per_rack=args.blades_per_rack,
        threads_per_blade=args.threads_per_blade,
        accesses_per_thread=args.accesses,
        cross_fraction=args.cross_fraction,
        read_ratio=args.read_ratio,
        pages_per_rack=args.pages_per_rack,
        cache_capacity_pages=args.cache_pages,
        oversubscription=args.oversubscription,
        spine_extra_us=args.spine_extra,
        arrival_process=args.open_loop,
        arrival_rate_per_thread=args.arrival_rate,
        seed=args.seed,
    )
    result = run_multirack(config)
    stats = result.stats
    fcfg = config.fabric_config()
    spine = fcfg.spine_link_config()
    print(f"multi-rack fabric: {args.racks} rack(s) x "
          f"{args.blades_per_rack} blade(s) x {args.threads_per_blade} thread(s)")
    print(f"  spine: {spine.link_bandwidth_gbps:g} Gbps/link "
          f"({fcfg.oversubscription:g}:1 oversubscribed), "
          f"hop {fcfg.spine_hop_us:g} us")
    print(f"  runtime: {result.runtime_us:.1f} us, "
          f"throughput: {result.throughput_iops:.0f} IOPS, "
          f"accesses: {result.total_accesses}")
    print()
    print("fault locality (the directory-sharding crossover):")
    intra_n = stats.counters.get("intra_rack_faults", 0)
    cross_n = stats.counters.get("cross_rack_faults", 0)
    for label, key, count in (
        ("intra-rack", "fault:intra", intra_n),
        ("cross-rack", "fault:cross", cross_n),
    ):
        summary = LatencySummary.of(stats.latencies.get(key, ()))
        if summary.count:
            print(f"  {label:<11} faults={count:<7} "
                  f"p50={summary.p50:8.2f} us   p99={summary.p99:8.2f} us")
        else:
            print(f"  {label:<11} faults={count:<7} (no remote faults)")
    if intra_n and cross_n:
        intra_p50 = LatencySummary.of(stats.latencies["fault:intra"]).p50
        cross_p50 = LatencySummary.of(stats.latencies["fault:cross"]).p50
        if intra_p50:
            print(f"  cross/intra p50 ratio: {cross_p50 / intra_p50:.2f}x")
    print()
    print("per-tier link accounting:")
    print(f"  edge bytes:  {stats.gauges.get('tier:edge:bytes', 0.0):,.0f}")
    print(f"  spine bytes: {stats.gauges.get('tier:spine:bytes', 0.0):,.0f}")
    print(f"  spine forwards: {stats.counters.get('spine_forwards', 0)}")
    print("  spine utilization (max link): "
          f"{stats.gauges.get('tier:spine:utilization_max', 0.0):.1%}")
    spine_comp = stats.breakdown("fault_path").get("spine", 0.0)
    if spine_comp:
        print(f"  spine time in fault paths: {spine_comp:,.1f} us")
    return 0
