"""Sweep execution: process fan-out, aggregation, resumable documents.

Every sweep point is an isolated deterministic simulation, so points can
run in any order on any number of worker processes and the result is a
pure function of the spec.  The engine exploits that:

- workers are spawned (``multiprocessing`` *spawn* context -- no
  inherited RNG state, no fork-unsafe locks), receive picklable
  :class:`~repro.sweep.spec.SweepPoint` handles, and rebuild workloads
  locally through the per-process cache;
- results are keyed by point index, so the output document is
  byte-identical whatever the completion order (``--jobs 4`` equals
  ``--jobs 1`` exactly);
- after every completed point the partial document is checkpointed to
  ``--out``; re-running the same spec resumes from completed points;
- fault plans are re-seeded *per point* from the point's seed, so a
  plan-bearing point replayed in a worker process produces the same
  bytes as the same point replayed in-process (spawn-context
  determinism).

The document layout (schema ``repro.sweep/v1``)::

    {"schema": ..., "spec_digest": ..., "spec": {...}, "complete": bool,
     "points": [{point..., "metrics": {...}}, ...],
     "aggregates": [{cell..., "seeds": [...],
                     "metrics": {name: {mean,p50,p99,min,max,n}}}, ...]}

No wall-clock data is recorded: documents from different machines and
worker counts diff clean.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import FaultPlan
from ..runner import run_system
from ..sim.stats import RunResult
from ..workloads import stable_seed
from .spec import (
    ALLOC_WORKLOADS,
    SCHEMA,
    SERVICE_WORKLOADS,
    TOPOLOGY_WORKLOADS,
    SweepPoint,
    SweepSpec,
    build_workload_cached,
)

#: metric-extraction hook signature (kept simple for mypy's benefit).
ProgressFn = Callable[[int, int, SweepPoint], None]


def reseed_plan_for_point(plan: FaultPlan, point: SweepPoint) -> FaultPlan:
    """Derive a point-local fault plan from the point's seed.

    The plan's own seed is folded in (two different plans stay
    distinguishable) but the result depends only on *plan contents and
    point identity* -- never on parent-process RNG state -- so in-process
    and spawned-worker executions of the same point are byte-identical.
    """
    return plan.reseeded(stable_seed("sweep.fault", plan.seed, point.seed))


def extract_metrics(result: RunResult) -> Dict[str, float]:
    """Flatten a RunResult into the sweep document's metric namespace.

    - top-level: ``runtime_us``, ``throughput_iops``, ``total_accesses``
    - ``counter:<name>`` for every stats counter
    - ``latency:<category>:{mean,p50,p99,p999}`` for every latency category
    - ``gauge:<name>`` for every end-of-run gauge
    - ``slo:<objective>:{compliance,violations}`` and
      ``telemetry:windows`` when the point ran with telemetry enabled
      (burn rates stay out of the namespace: an exhausted error budget is
      infinite burn, and ``Infinity`` is not valid JSON)
    """
    metrics: Dict[str, float] = {
        "runtime_us": float(result.runtime_us),
        "throughput_iops": float(result.throughput_iops),
        "total_accesses": float(result.total_accesses),
    }
    for name in sorted(result.stats.counters):
        metrics[f"counter:{name}"] = float(result.stats.counters[name])
    for category, summary in result.stats.snapshot().items():
        metrics[f"latency:{category}:mean"] = summary.mean
        metrics[f"latency:{category}:p50"] = summary.p50
        metrics[f"latency:{category}:p99"] = summary.p99
        metrics[f"latency:{category}:p999"] = summary.p999
    for name in sorted(result.stats.gauges):
        metrics[f"gauge:{name}"] = float(result.stats.gauges[name])
    timeline = result.stats.timeline
    if timeline is not None:
        from ..telemetry import evaluate_slos

        metrics["telemetry:windows"] = float(timeline.num_windows)
        for slo_result in evaluate_slos(timeline).results:
            prefix = f"slo:{slo_result.objective.name}"
            metrics[f"{prefix}:compliance"] = slo_result.compliance
            metrics[f"{prefix}:violations"] = float(slo_result.windows_violating)
    return metrics


@dataclass
class PointRecord:
    """One executed point: its identity plus flattened metrics."""

    point: SweepPoint
    metrics: Dict[str, float]
    #: trace JSONL (only when the point ran with tracing; never stored in
    #: sweep documents -- used by the determinism tests).
    trace_jsonl: Optional[str] = field(default=None, repr=False)
    #: windowed telemetry document (``repro.telemetry/v1``) -- only when
    #: the point ran with telemetry enabled, so telemetry-off sweep
    #: documents are byte-identical to pre-telemetry ones.
    timeline: Optional[Dict[str, Any]] = field(default=None, repr=False)

    def to_json(self) -> Dict[str, Any]:
        doc = self.point.to_json()
        doc["metrics"] = {k: self.metrics[k] for k in sorted(self.metrics)}
        if self.timeline is not None:
            doc["timeline"] = self.timeline
        return doc

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "PointRecord":
        return cls(
            point=SweepPoint.from_json(data),
            metrics=dict(data["metrics"]),
            timeline=data.get("timeline"),
        )


def _execute_service_point(point: SweepPoint) -> PointRecord:
    """Run a ``repro.service`` scenario point (e.g. ``kvs_service``).

    Grid axes map onto :class:`~repro.service.ServiceConfig` fields;
    structural axes translate as blades -> rack size, threads_per_blade ->
    initial serving slots, seed -> scenario seed.  The scenario builds its
    own chaos plan from ``stable_seed`` children of that seed, so service
    sweeps are byte-identical at any ``--jobs`` with no plan re-seeding.
    """
    from ..service import config_from_params, run_service

    params = dict(point.workload_params)
    params.update(dict(point.runner_params))
    # An explicit initial_slots axis wins over the structural default.
    params.setdefault("initial_slots", point.threads_per_blade)
    config = config_from_params(
        params,
        num_compute_blades=point.num_blades,
        seed=point.seed,
    )
    sr = run_service(config)
    record = PointRecord(point=point, metrics=extract_metrics(sr.result))
    if sr.result.stats.timeline is not None:
        record.timeline = sr.result.stats.timeline.to_json()
    return record


def _execute_topology_point(point: SweepPoint) -> PointRecord:
    """Run a ``repro.multirack`` topology point (the ``multirack`` workload).

    Grid axes map onto :class:`~repro.multirack.MultiRackScenarioConfig`
    fields; structural axes translate as blades -> compute blades *per
    rack*, threads_per_blade -> threads per blade, seed -> scenario seed.
    Every access stream derives from ``stable_seed`` children of that
    seed, so topology sweeps are byte-identical at any ``--jobs``.
    """
    from ..multirack import config_from_params, run_multirack

    params = dict(point.workload_params)
    params.update(dict(point.runner_params))
    config = config_from_params(
        params,
        compute_blades_per_rack=point.num_blades,
        threads_per_blade=point.threads_per_blade,
        seed=point.seed,
    )
    result = run_multirack(config)
    record = PointRecord(point=point, metrics=extract_metrics(result))
    if result.stats.timeline is not None:
        record.timeline = result.stats.timeline.to_json()
    return record


def _execute_alloc_point(point: SweepPoint) -> PointRecord:
    """Run a ``repro.alloc.scenario`` churn point (the allocator ablation).

    Grid axes map onto :class:`~repro.alloc.scenario.ChurnScenarioConfig`
    fields (``allocator``, ``size_dist``, ``ops_per_thread`` ...);
    structural axes translate as blades -> compute blades, seed ->
    scenario seed.  Op streams derive from ``stable_seed`` children of
    that seed, so allocator sweeps are byte-identical at any ``--jobs``.
    """
    from ..alloc.scenario import config_from_params, run_churn

    params = dict(point.workload_params)
    params.update(dict(point.runner_params))
    config = config_from_params(
        params,
        compute_blades=point.num_blades,
        threads_per_blade=point.threads_per_blade,
        seed=point.seed,
    )
    result = run_churn(config)
    return PointRecord(point=point, metrics=extract_metrics(result))


def execute_point(
    point: SweepPoint,
    fault_plan: Optional[FaultPlan] = None,
    with_trace: bool = False,
) -> PointRecord:
    """Run one sweep point to completion in this process."""
    scenario_kind = None
    if point.workload in SERVICE_WORKLOADS:
        scenario_kind = "service"
    elif point.workload in TOPOLOGY_WORKLOADS:
        scenario_kind = "topology"
    elif point.workload in ALLOC_WORKLOADS:
        scenario_kind = "allocation"
    if scenario_kind is not None:
        if fault_plan is not None:
            raise ValueError(
                f"{scenario_kind} points build their own chaos plan / fault "
                "schedule; an external --fault plan cannot be combined with "
                "them"
            )
        if with_trace:
            raise ValueError(
                f"{scenario_kind} points do not record event traces"
            )
        if point.workload in SERVICE_WORKLOADS:
            return _execute_service_point(point)
        if point.workload in TOPOLOGY_WORKLOADS:
            return _execute_topology_point(point)
        return _execute_alloc_point(point)
    workload = build_workload_cached(point)
    extra: Dict[str, Any] = {}
    if fault_plan is not None:
        extra["fault_plan"] = reseed_plan_for_point(fault_plan, point)
    if with_trace:
        extra["trace"] = True
    config = point.runner_config(**extra)
    result = run_system(point.system, workload, point.num_blades, config)
    record = PointRecord(point=point, metrics=extract_metrics(result))
    if with_trace and result.trace is not None:
        record.trace_jsonl = result.trace.to_jsonl()
    if result.stats.timeline is not None:
        record.timeline = result.stats.timeline.to_json()
    return record


def _execute_task(
    task: Tuple[int, SweepPoint, Optional[FaultPlan]]
) -> Tuple[int, PointRecord]:
    """Spawn-safe worker entry point (must be module-level to pickle)."""
    index, point, plan = task
    return index, execute_point(point, fault_plan=plan)


# -- aggregation -------------------------------------------------------------


def _summary(values: Sequence[float]) -> Dict[str, float]:
    values = list(values)
    if len(values) == 1:
        # All summary statistics of one value are that value; skip numpy
        # (this runs once per metric per cell, thousands of times a sweep).
        value = float(values[0])
        return {
            "mean": value, "p50": value, "p99": value,
            "min": value, "max": value, "n": 1.0,
        }
    arr = np.asarray(values, dtype=np.float64)
    p50, p99 = np.percentile(arr, (50, 99))
    return {
        "mean": float(arr.mean()),
        "p50": float(p50),
        "p99": float(p99),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "n": float(len(arr)),
    }


def aggregate(
    records: Sequence[PointRecord],
    cache: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Group records by cell (identity minus seed); summarize across seeds.

    ``cache`` (keyed by cell id, keeping the member point ids alongside the
    aggregated entry) lets per-point checkpointing skip re-summarizing
    cells whose membership has not changed since the previous checkpoint;
    a cell entry is a pure function of its members, so the cached and
    freshly computed documents are identical.
    """
    cells: Dict[str, List[PointRecord]] = {}
    for record in records:
        cells.setdefault(record.point.cell_id, []).append(record)
    out = []
    for cell_id, members in cells.items():
        members = sorted(members, key=lambda r: r.point.seed)
        key = tuple(m.point.point_id for m in members)
        if cache is not None:
            hit = cache.get(cell_id)
            if hit is not None and hit[0] == key:
                out.append(hit[1])
                continue
        head = members[0].point
        names = sorted({name for m in members for name in m.metrics})
        entry = {
            "cell_id": cell_id,
            "system": head.system,
            "workload": head.workload,
            "num_blades": head.num_blades,
            "threads_per_blade": head.threads_per_blade,
            "workload_params": dict(head.workload_params),
            "runner_params": dict(head.runner_params),
            "seeds": [m.point.seed for m in members],
            "metrics": {
                name: _summary(
                    [m.metrics[name] for m in members if name in m.metrics]
                )
                for name in names
            },
        }
        if cache is not None:
            cache[cell_id] = (key, entry)
        out.append(entry)
    return out


# -- documents ---------------------------------------------------------------


class SweepResults:
    """An executed (possibly partial) sweep plus its JSON document."""

    def __init__(
        self,
        spec: SweepSpec,
        records: Sequence[PointRecord],
        complete: bool = True,
        agg_cache: Optional[Dict[str, Any]] = None,
    ):
        self.spec = spec
        self.records = list(records)
        self.complete = complete
        #: shared across per-point checkpoints of one run_sweep call so an
        #: unchanged cell is aggregated once, not once per checkpoint.
        self._agg_cache = agg_cache

    def __len__(self) -> int:
        return len(self.records)

    # -- querying (used by benchmarks/tests) -----------------------------

    def lookup(self, **criteria: Any) -> List[PointRecord]:
        """Records whose point fields / params match all ``criteria``."""
        out = []
        for record in self.records:
            point = record.point
            params = dict(point.workload_params) | dict(point.runner_params)
            for key, want in criteria.items():
                have = getattr(point, key, params.get(key, _MISSING))
                if have is _MISSING or have != want:
                    break
            else:
                out.append(record)
        return out

    def one(self, **criteria: Any) -> PointRecord:
        matches = self.lookup(**criteria)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one point for {criteria}, got {len(matches)}"
            )
        return matches[0]

    # -- serialization ---------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "spec_digest": self.spec.digest(),
            "spec": self.spec.to_json(),
            "complete": self.complete,
            "num_points": len(self.records),
            "points": [r.to_json() for r in self.records],
            "aggregates": aggregate(self.records, cache=self._agg_cache),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"

    def save(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_json_text())
        os.replace(tmp, path)

    @staticmethod
    def load_doc(path: str) -> Dict[str, Any]:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: schema {doc.get('schema')!r} != {SCHEMA!r}"
            )
        return doc


_MISSING = object()


# -- the sweep driver --------------------------------------------------------


def _load_resume_records(
    out: Optional[str], spec: SweepSpec
) -> Dict[str, PointRecord]:
    """Completed records from a previous partial run of the *same* spec."""
    if not out or not os.path.exists(out):
        return {}
    try:
        doc = SweepResults.load_doc(out)
    except (ValueError, json.JSONDecodeError, OSError):
        return {}
    if doc.get("spec_digest") != spec.digest():
        return {}
    records = {}
    for data in doc.get("points", []):
        record = PointRecord.from_json(data)
        records[record.point.point_id] = record
    return records


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    out: Optional[str] = None,
    resume: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResults:
    """Execute every point of ``spec``; return ordered, aggregated results.

    ``jobs > 1`` fans points out across spawned worker processes; the
    output is byte-identical to a serial run.  When ``out`` is given the
    document is checkpointed after every completed point, and (with
    ``resume=True``) a matching previous document seeds the run, so
    interrupted sweeps continue where they stopped.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    points = spec.points()
    done: Dict[str, PointRecord] = _load_resume_records(out, spec) if resume else {}
    records: List[Optional[PointRecord]] = [done.get(p.point_id) for p in points]
    pending = [
        (i, point, fault_plan)
        for i, point in enumerate(points)
        if records[i] is None
    ]
    completed = len(points) - len(pending)

    agg_cache: Dict[str, Any] = {}

    def checkpoint(final: bool = False) -> None:
        if out is None:
            return
        finished = [r for r in records if r is not None]
        SweepResults(
            spec,
            finished,
            complete=final and len(finished) == len(points),
            agg_cache=agg_cache,
        ).save(out)

    def note(index: int) -> None:
        nonlocal completed
        completed += 1
        if progress is not None:
            progress(completed, len(points), points[index])

    if jobs == 1 or len(pending) <= 1:
        for index, point, plan in pending:
            records[index] = execute_point(point, fault_plan=plan)
            note(index)
            checkpoint()
    else:
        context = multiprocessing.get_context("spawn")
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = {pool.submit(_execute_task, task) for task in pending}
            while futures:
                finished, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    index, record = future.result()
                    records[index] = record
                    note(index)
                checkpoint()

    final = [r for r in records if r is not None]
    results = SweepResults(
        spec, final, complete=len(final) == len(points), agg_cache=agg_cache
    )
    if out is not None:
        results.save(out)
    return results
