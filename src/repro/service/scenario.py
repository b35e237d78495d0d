"""The end-to-end serving scenario: elastic multi-tenant KVS under chaos.

One :func:`run_service` call assembles the whole stack on a MIND rack:

- N tenants, each a :class:`~repro.workloads.elastic_kvs.KvsTenant` with a
  private table and protection domain in one serving process;
- open-loop clients with diurnal (or Poisson) arrivals per tenant,
  retrying rejections with capped exponential backoff;
- :class:`~repro.service.admission.ServiceAdmission` gating every request
  on per-tenant queue budgets and switch pending-table pressure, with
  retry-storm detection shedding the lowest-priority tenant first;
- a deterministic :class:`~repro.service.autoscaler.Autoscaler` adding
  and retiring serving threads from windowed queue depth;
- an optional :class:`~repro.faults.FaultPlan` chaos phase (switch crash
  mid-run, seeded packet loss, a memory-blade outage) injected while the
  service runs.

Results come back as availability/SLO curves through ``repro.telemetry``:
per-tenant p99.9, unavailability seconds, shed/retry counts, and
error-budget burn attributable to fault phase.  Every random stream is a
``stable_seed`` child keyed by identity, so a scenario -- including its
chaos -- is byte-identical across reruns and sweep ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, Generator, List, Optional, Tuple

from ..api import MindSystem
from ..faults import FaultPlan
from ..sim.stats import RunResult
from ..telemetry import SloObjective, SloReport, evaluate_slos
from ..workloads.elastic_kvs import KvsTenant, make_ops
from ..workloads.openloop import ArrivalSpec, arrival_times
from ..workloads.trace import stable_seed
from .admission import ADMIT, REJECT_DEGRADED, ServiceAdmission
from .autoscaler import Autoscaler, AutoscalerConfig
from .pool import Request, ServingPool
from .retry import RetryPolicy

#: chaos presets selectable by name (CLI/sweep friendly).
CHAOS_MODES = ("none", "loss", "crash", "crash+loss", "full")


@dataclass
class ServiceConfig:
    """Everything about one serving run, flat so sweeps can grid it."""

    # -- rack -------------------------------------------------------------
    num_compute_blades: int = 4
    num_memory_blades: int = 2
    cache_capacity_pages: int = 2_048

    # -- identity ---------------------------------------------------------
    name: str = "kvs-service"
    seed: int = 1

    # -- tenants & clients ------------------------------------------------
    tenants: int = 3
    clients_per_tenant: int = 3
    requests_per_client: int = 96
    keys_per_tenant: int = 64
    kvs_slots_per_tenant: int = 512
    value_bytes: int = 24
    read_fraction: float = 0.9
    zipf_theta: float = 0.9

    # -- arrivals ---------------------------------------------------------
    arrival_process: str = "diurnal"
    arrival_rate_per_client: float = 0.015  # requests per us
    diurnal_period_us: float = 20_000.0
    diurnal_amplitude: float = 0.6

    # -- serving ----------------------------------------------------------
    request_cpu_us: float = 8.0
    initial_slots: int = 2
    min_slots: int = 1
    max_slots: int = 8
    autoscale_interval_us: float = 500.0
    scale_up_depth: float = 2.0
    scale_down_depth: float = 0.25
    autoscale_samples: int = 2
    autoscale_cooldown: int = 2
    slot_bringup_us: float = 250.0

    # -- admission & retries ----------------------------------------------
    admission: bool = True
    tenant_queue_cap: int = 10
    pending_highwater: float = 0.85
    storm_defense: bool = True
    storm_window_us: float = 1_000.0
    storm_enter_retries: int = 16
    storm_exit_retries: int = 4
    max_retries: int = 3
    backoff_base_us: float = 50.0
    backoff_cap_us: float = 1_600.0
    backoff_jitter: float = 0.5

    # -- chaos (times relative to serving start; the default schedule
    # fits inside the ~6.4 ms arrival span of the default load) -----------
    chaos: Optional[str] = "none"  # None normalizes to "none" in validate()
    chaos_crash_at_us: float = 3_000.0
    chaos_loss_start_us: float = 1_500.0
    chaos_loss_end_us: float = 5_500.0
    chaos_loss_prob: float = 0.02
    chaos_outage_blade: int = 0
    chaos_outage_start_us: float = 4_500.0
    chaos_outage_end_us: float = 5_200.0

    # -- SLO --------------------------------------------------------------
    slo_p999_us: float = 1_100.0
    slo_target: float = 0.99

    def validate(self) -> "ServiceConfig":
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.clients_per_tenant < 1 or self.requests_per_client < 1:
            raise ValueError("need at least one client and one request")
        if self.chaos is None:
            # Grid strings parse a literal "none" to None; both mean off.
            self.chaos = "none"
        if self.chaos not in CHAOS_MODES:
            raise ValueError(
                f"unknown chaos mode {self.chaos!r}; pick from {CHAOS_MODES}"
            )
        if self.arrival_process not in ("poisson", "diurnal"):
            raise ValueError("arrival_process must be poisson or diurnal")
        if self.initial_slots < 1:
            raise ValueError("need at least one initial serving slot")
        return self

    def chaos_plan(self, start_us: float) -> Optional[FaultPlan]:
        """The chaos :class:`FaultPlan` for this run, or None.

        ``start_us`` anchors the plan's relative times to the moment
        serving begins (after preload), so the same config produces the
        same *relative* chaos no matter how long preload took.
        """
        if self.chaos == "none":
            return None
        plan = FaultPlan(seed=stable_seed(self.name, self.seed, "chaos"))
        if self.chaos in ("loss", "crash+loss", "full"):
            plan.packet_loss(
                start_us + self.chaos_loss_start_us,
                start_us + self.chaos_loss_end_us,
                prob=self.chaos_loss_prob,
            )
        if self.chaos in ("crash", "crash+loss", "full"):
            plan.switch_crash(at_us=start_us + self.chaos_crash_at_us)
        if self.chaos == "full":
            plan.blade_crash(
                self.chaos_outage_blade,
                start_us + self.chaos_outage_start_us,
                start_us + self.chaos_outage_end_us,
            )
        return plan.validate()


@dataclass
class TenantSummary:
    """Per-tenant availability outcome of one run."""

    tenant: int
    arrivals: int = 0
    completions: int = 0
    retries: int = 0
    shed: int = 0
    failed: int = 0
    p999_us: float = 0.0
    slo_compliance: float = 1.0
    slo_burn: float = 0.0
    unavailability_us: float = 0.0

    @property
    def availability(self) -> float:
        if self.arrivals == 0:
            return 1.0
        return self.completions / self.arrivals


@dataclass
class ServiceResult:
    """Everything :func:`run_service` learned, report-ready."""

    config: ServiceConfig
    result: RunResult
    tenants: List[TenantSummary]
    slo: SloReport
    scale_events: List[Tuple[float, str, object]]
    storm_windows: List[Tuple[float, float]]
    outage_windows: List[Tuple[float, float]]
    chaos_description: List[str] = field(default_factory=list)
    serving_start_us: float = 0.0

    @property
    def completed(self) -> int:
        return sum(t.completions for t in self.tenants)


def service_objectives(config: ServiceConfig) -> List[SloObjective]:
    """Per-tenant p99.9 objectives plus the aggregate, from the config."""
    objectives = [
        SloObjective(
            f"svc-t{i}-p999",
            f"svc:t{i}:latency",
            99.9,
            config.slo_p999_us,
            target=config.slo_target,
        )
        for i in range(config.tenants)
    ]
    objectives.append(
        SloObjective(
            "svc-p999", "svc:latency", 99.9, config.slo_p999_us,
            target=config.slo_target,
        )
    )
    return objectives


def run_service(config: ServiceConfig) -> ServiceResult:
    """Run the serving scenario to completion; returns its result."""
    cfg = config.validate()
    system = MindSystem(
        num_compute_blades=cfg.num_compute_blades,
        num_memory_blades=cfg.num_memory_blades,
        cache_capacity_pages=cfg.cache_capacity_pages,
        store_data=True,
        telemetry=True,
    )
    engine = system.cluster.engine
    stats = system.stats

    process = system.spawn_process(cfg.name)
    tenants = [
        KvsTenant(
            process,
            i,
            num_keys=cfg.keys_per_tenant,
            num_slots=cfg.kvs_slots_per_tenant,
            value_bytes=cfg.value_bytes,
        )
        for i in range(cfg.tenants)
    ]

    # Preload every tenant's keys before serving or chaos begins.
    loader = process.spawn_thread()
    system.run_concurrently([t.preload_gen(loader) for t in tenants])
    t0 = system.now_us
    stats.set_phase(t0, "serve")
    stats.mark(t0, "serving_start")

    plan = cfg.chaos_plan(t0)
    chaos_description: List[str] = []
    if plan is not None:
        chaos_description = plan.describe()
        system.inject_faults(plan)

    # -- data plane: pool + admission + autoscaler ------------------------
    def execute(thread, req: Request) -> Generator:
        yield from tenants[req.tenant].serve_gen(thread, req.op)

    pool = ServingPool(engine, stats, cfg.request_cpu_us, execute)
    for _ in range(cfg.initial_slots):
        pool.add_slot(process.spawn_thread())

    pending = system.cluster.mmu.coherence.pending
    admission = ServiceAdmission(
        num_tenants=cfg.tenants,
        tenant_queue_cap=cfg.tenant_queue_cap,
        pending_load=lambda: pending.occupancy / pending.capacity,
        pending_highwater=cfg.pending_highwater,
        storm_defense=cfg.storm_defense,
        storm_window_us=cfg.storm_window_us,
        storm_enter_retries=cfg.storm_enter_retries,
        storm_exit_retries=cfg.storm_exit_retries,
    )
    retry = RetryPolicy(
        max_retries=cfg.max_retries,
        base_us=cfg.backoff_base_us,
        cap_us=cfg.backoff_cap_us,
        jitter=cfg.backoff_jitter,
    )
    autoscaler = Autoscaler(
        engine,
        pool,
        process,
        stats,
        AutoscalerConfig(
            min_slots=cfg.min_slots,
            max_slots=cfg.max_slots,
            interval_us=cfg.autoscale_interval_us,
            scale_up_depth=cfg.scale_up_depth,
            scale_down_depth=cfg.scale_down_depth,
            samples=cfg.autoscale_samples,
            cooldown_intervals=cfg.autoscale_cooldown,
            slot_bringup_us=cfg.slot_bringup_us,
        ),
    )
    engine.process(autoscaler.run(), name="svc.autoscaler")

    # -- clients ----------------------------------------------------------
    def request_lifecycle(req: Request) -> Generator:
        """Admission -> serve -> complete, retrying rejections."""
        i = req.tenant
        while True:
            verdict = admission.try_admit(engine.now, i) if cfg.admission else ADMIT
            if verdict == ADMIT:
                if cfg.admission:
                    pass  # in-flight slot taken inside try_admit
                else:
                    admission.in_flight[i] += 1
                pool.submit(req)
                yield req.done
                admission.note_done(i)
                now = engine.now
                latency = now - req.arrival_us
                stats.incr(f"svc:t{i}:completions", t=now)
                stats.record_latency(f"svc:t{i}:latency", latency, t=now)
                stats.record_latency("svc:latency", latency, t=now)
                return
            # Rejected: shed outright (degraded / out of retries) or back off.
            stats.incr(f"svc:t{i}:shed", t=engine.now)
            stats.incr(f"svc:shed:{verdict}")
            if verdict == REJECT_DEGRADED or req.attempts >= retry.max_retries:
                stats.incr(f"svc:t{i}:failed", t=engine.now)
                return
            req.attempts += 1
            admission.note_retry(engine.now)
            stats.incr(f"svc:t{i}:retries", t=engine.now)
            yield retry.backoff_us(
                cfg.seed, req.tenant, req.client, req.index, req.attempts
            )

    def client(tenant: int, client_id: int) -> Generator:
        """Open-loop dispatcher: one tenant client's arrival schedule."""
        ops = make_ops(
            cfg.name,
            cfg.seed,
            tenant,
            client_id,
            cfg.requests_per_client,
            cfg.keys_per_tenant,
            read_fraction=cfg.read_fraction,
            zipf_theta=cfg.zipf_theta,
            value_bytes=cfg.value_bytes,
        )
        spec = ArrivalSpec(
            process=cfg.arrival_process,
            rate_per_us=cfg.arrival_rate_per_client,
            period_us=cfg.diurnal_period_us,
            amplitude=cfg.diurnal_amplitude,
        )
        arrivals = arrival_times(
            spec,
            cfg.requests_per_client,
            stable_seed(cfg.name, cfg.seed, tenant, client_id, "arrivals"),
        )
        t_start = engine.now
        lifecycles = []
        for r, op in enumerate(ops):
            at = t_start + arrivals[r]
            if at > engine.now:
                yield at - engine.now
            req = Request(tenant, client_id, r, op)
            req.arrival_us = engine.now
            stats.incr(f"svc:t{tenant}:arrivals", t=engine.now)
            lifecycles.append(
                engine.process(
                    request_lifecycle(req), name=f"svc.req.t{tenant}c{client_id}r{r}"
                )
            )
        if lifecycles:
            yield engine.all_of(lifecycles)

    system.run_concurrently(
        [
            client(i, c)
            for i in range(cfg.tenants)
            for c in range(cfg.clients_per_tenant)
        ]
    )

    # -- wrap-up ----------------------------------------------------------
    end = system.now_us
    admission.finalize(end)
    pool.drain_idle()
    system.capture_telemetry()

    timeline = stats.timeline
    slo = evaluate_slos(timeline, service_objectives(cfg))
    by_name = {r.objective.name: r for r in slo.results}
    summaries = [
        TenantSummary(
            tenant=i,
            **{
                kind: stats.counter(f"svc:t{i}:{kind}")
                for kind in ("arrivals", "completions", "retries", "shed", "failed")
            },
        )
        for i in range(cfg.tenants)
    ]
    for i, summary in enumerate(summaries):
        cat = f"svc:t{i}:latency"
        if cat in stats.latencies and stats.latencies[cat]:
            summary.p999_us = stats.latency_summary(cat).p999
        slo_result = by_name.get(f"svc-t{i}-p999")
        if slo_result is not None:
            summary.slo_compliance = slo_result.compliance
            # Burn can be infinite (exhausted budget); clamp for JSON.
            summary.slo_burn = min(slo_result.burn_rate, 1e6)
        summary.unavailability_us = _unavailability_us(timeline, i)
        stats.set_gauge(f"svc:t{i}:availability", summary.availability)
        stats.set_gauge(f"svc:t{i}:slo_compliance", summary.slo_compliance)
        stats.set_gauge(f"svc:t{i}:slo_burn", summary.slo_burn)
        stats.set_gauge(f"svc:t{i}:unavailability_us", summary.unavailability_us)
    stats.set_gauge("svc:slots_final", float(pool.active_slots))
    stats.set_gauge("svc:storm_windows", float(len(admission.storm_windows)))

    failover = system.cluster.failover
    outage_windows = list(failover.outage_windows) if failover is not None else []

    result = RunResult(
        system="mind",
        workload=cfg.name,
        num_blades=cfg.num_compute_blades,
        num_threads=pool.active_slots,
        runtime_us=end,
        total_accesses=sum(s.completions for s in summaries),
        stats=stats,
        kernel_stats=engine.kernel_stats(),
    )
    return ServiceResult(
        config=cfg,
        result=result,
        tenants=summaries,
        slo=slo,
        scale_events=list(autoscaler.events),
        storm_windows=list(admission.storm_windows),
        outage_windows=outage_windows,
        chaos_description=chaos_description,
        serving_start_us=t0,
    )


def _unavailability_us(timeline, tenant: int) -> float:
    """Seconds-of-unavailability proxy: windows where the tenant shed or
    failed requests and completed none."""
    total = 0.0
    for snap in timeline.snapshots():
        counters = snap.counters
        bad = counters.get(f"svc:t{tenant}:shed", 0.0) + counters.get(
            f"svc:t{tenant}:failed", 0.0
        )
        if bad > 0 and counters.get(f"svc:t{tenant}:completions", 0.0) == 0:
            total += timeline.window_us
    return total


def config_from_params(params: Dict[str, object], **overrides) -> ServiceConfig:
    """Build a :class:`ServiceConfig` from loose sweep/CLI parameters.

    Unknown keys raise (typo protection in sweep grids); ``overrides``
    win over ``params``.
    """
    known = {f.name for f in fields(ServiceConfig)}
    merged: Dict[str, object] = dict(params)
    merged.update(overrides)
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ValueError(
            f"unknown service parameter(s): {', '.join(unknown)}; "
            f"valid keys are ServiceConfig fields"
        )
    return ServiceConfig(**merged)  # type: ignore[arg-type]


def rerun_without_defense(config: ServiceConfig) -> ServiceResult:
    """Convenience for A/B reports: same scenario, storm defense off."""
    return run_service(replace(config, storm_defense=False))
