"""The sweep grid language: axes, points, and picklable workload handles.

A *grid* is an ordered mapping ``axis -> [values]`` whose cartesian
product enumerates experiment points.  Four axes are structural and
consumed by the runner:

- ``system``             -- one of :data:`repro.runner.SYSTEMS`
- ``workload``           -- a key of :data:`WORKLOAD_BUILDERS`
- ``blades``             -- compute-blade count
- ``threads_per_blade``  -- workload threads per blade
- ``seed``               -- workload seed (usually supplied via
  ``SweepSpec.seeds`` rather than as a grid axis)

Axes whose names match :class:`repro.runner.RunnerConfig` fields become
runner-config overrides (``num_memory_blades``, ``epoch_us``,
``cache_capacity_pages`` ...); every remaining axis is passed to the
workload constructor (``accesses_per_thread``, ``read_ratio`` ...).

A :class:`SweepPoint` is deliberately a *handle*, not a built workload:
it pickles as a few strings and numbers, and worker processes rebuild
(and cache) the actual trace workload locally.  Points that differ only
in ``system`` share one cached workload -- the trace is generated once
per worker instead of once per run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..runner import SYSTEMS, RunnerConfig
from ..workloads import (
    GraphLikeWorkload,
    MemcachedYcsbWorkload,
    NativeKvsWorkload,
    TensorFlowLikeWorkload,
    TraceWorkload,
    UniformSharingWorkload,
)

#: schema tag stamped on every sweep document this package writes.
SCHEMA = "repro.sweep/v1"

#: structural axes the runner consumes (never workload kwargs).
STRUCTURAL_AXES = ("system", "workload", "blades", "threads_per_blade", "seed")

#: RunnerConfig trace knobs: tracing is an execution-time decision
#: (``execute_point(..., with_trace=True)``), so a grid may not name them.
TRACE_KNOBS = ("trace", "trace_capacity")

#: RunnerConfig fields a grid may override per point.  ``fault_plan`` and
#: the trace knobs are excluded: plans are supplied (and re-seeded) by the
#: engine, and tracing is not a grid axis.
RUNNER_AXES = tuple(
    f.name
    for f in fields(RunnerConfig)
    if f.name not in ("fault_plan", "mind", "network", *TRACE_KNOBS)
)

#: workload registry: name -> builder(num_threads, seed, **params).
WORKLOAD_BUILDERS: Dict[str, Callable[..., TraceWorkload]] = {
    "tf": lambda num_threads, seed, **kw: TensorFlowLikeWorkload(
        num_threads, seed=seed, **kw
    ),
    "gc": lambda num_threads, seed, **kw: GraphLikeWorkload(
        num_threads, seed=seed, **kw
    ),
    "ycsb_a": lambda num_threads, seed, **kw: MemcachedYcsbWorkload.workload_a(
        num_threads, seed=seed, **kw
    ),
    "ycsb_c": lambda num_threads, seed, **kw: MemcachedYcsbWorkload.workload_c(
        num_threads, seed=seed, **kw
    ),
    "kvs": lambda num_threads, seed, **kw: NativeKvsWorkload(
        num_threads, seed=seed, **kw
    ),
    "uniform": lambda num_threads, seed, **kw: UniformSharingWorkload(
        num_threads, seed=seed, **kw
    ),
}

#: scenario workloads executed through ``repro.service`` instead of the
#: trace-replay runner.  They only run on the MIND system, build their
#: own chaos plan from the point seed, and expose ``ServiceConfig``
#: fields (plus the runner sizing knobs they share) as grid axes.
SERVICE_WORKLOADS = ("kvs_service",)

#: topology scenarios executed through ``repro.multirack`` instead of the
#: trace-replay runner.  Like service workloads they are MIND-only; their
#: grid axes map onto ``MultiRackScenarioConfig`` fields, with the
#: structural ``blades`` axis meaning compute blades *per rack*.
TOPOLOGY_WORKLOADS = ("multirack",)

#: allocation scenarios executed through ``repro.alloc.scenario`` -- the
#: malloc/free churn benchmark behind the allocator ablation.  MIND-only;
#: grid axes map onto ``ChurnScenarioConfig`` fields (most importantly
#: ``allocator`` and ``size_dist``).
ALLOC_WORKLOADS = ("churn",)


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SweepPoint:
    """One experiment point: a picklable (system, config, seed) handle."""

    system: str
    workload: str
    num_blades: int
    threads_per_blade: int
    seed: int
    #: workload-constructor overrides, sorted for a stable identity.
    workload_params: Tuple[Tuple[str, Any], ...] = ()
    #: RunnerConfig overrides, sorted for a stable identity.
    runner_params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def num_threads(self) -> int:
        return self.num_blades * self.threads_per_blade

    # -- identity ---------------------------------------------------------

    def _cell_key(self) -> Dict[str, Any]:
        """Everything that identifies the point except the seed."""
        return {
            "system": self.system,
            "workload": self.workload,
            "num_blades": self.num_blades,
            "threads_per_blade": self.threads_per_blade,
            "workload_params": list(map(list, self.workload_params)),
            "runner_params": list(map(list, self.runner_params)),
        }

    @property
    def cell_id(self) -> str:
        """Identity of the seed-aggregation cell this point belongs to."""
        return _digest(self._cell_key())

    @property
    def point_id(self) -> str:
        return _digest({**self._cell_key(), "seed": self.seed})

    def label(self) -> str:
        bits = [
            self.system,
            self.workload,
            f"{self.num_blades}b x {self.threads_per_blade}t",
        ]
        bits.extend(f"{k}={v}" for k, v in self.workload_params)
        bits.extend(f"{k}={v}" for k, v in self.runner_params)
        bits.append(f"seed={self.seed}")
        return " ".join(bits)

    # -- materialization --------------------------------------------------

    def build_workload(self) -> TraceWorkload:
        if self.workload in SERVICE_WORKLOADS:
            raise ValueError(
                f"{self.workload!r} is a service scenario, not a trace "
                "workload; the sweep engine runs it through repro.service"
            )
        if self.workload in TOPOLOGY_WORKLOADS:
            raise ValueError(
                f"{self.workload!r} is a topology scenario, not a trace "
                "workload; the sweep engine runs it through repro.multirack"
            )
        if self.workload in ALLOC_WORKLOADS:
            raise ValueError(
                f"{self.workload!r} is an allocation scenario, not a trace "
                "workload; the sweep engine runs it through "
                "repro.alloc.scenario"
            )
        try:
            builder = WORKLOAD_BUILDERS[self.workload]
        except KeyError:
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(WORKLOAD_BUILDERS)}"
            ) from None
        return builder(self.num_threads, self.seed, **dict(self.workload_params))

    def runner_config(self, **extra: Any) -> RunnerConfig:
        return RunnerConfig(**dict(self.runner_params), **extra)

    # -- (de)serialization ------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "point_id": self.point_id,
            "cell_id": self.cell_id,
            "system": self.system,
            "workload": self.workload,
            "num_blades": self.num_blades,
            "threads_per_blade": self.threads_per_blade,
            "num_threads": self.num_threads,
            "seed": self.seed,
            "workload_params": dict(self.workload_params),
            "runner_params": dict(self.runner_params),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SweepPoint":
        return cls(
            system=data["system"],
            workload=data["workload"],
            num_blades=int(data["num_blades"]),
            threads_per_blade=int(data["threads_per_blade"]),
            seed=int(data["seed"]),
            workload_params=tuple(sorted(data.get("workload_params", {}).items())),
            runner_params=tuple(sorted(data.get("runner_params", {}).items())),
        )


# -- the per-process workload cache -----------------------------------------

#: worker-local cache: identical workload handles (same workload, thread
#: count, seed, params -- the system does not matter) rebuild the trace
#: workload once per process, not once per point.
_WORKLOAD_CACHE: Dict[Tuple, TraceWorkload] = {}


def build_workload_cached(point: SweepPoint) -> TraceWorkload:
    """Build ``point``'s workload, reusing a per-process cached instance.

    Workloads memoize their generated per-thread streams (see
    :meth:`repro.workloads.trace.TraceWorkload.thread_trace`), so points
    that share a workload also share the generated trace arrays -- the
    dominant part of per-point setup when the same workload is replayed
    on several systems.
    """
    key = (
        point.workload,
        point.num_threads,
        point.seed,
        point.workload_params,
    )
    workload = _WORKLOAD_CACHE.get(key)
    if workload is None:
        workload = _WORKLOAD_CACHE[key] = point.build_workload()
    return workload


def clear_workload_cache() -> None:
    _WORKLOAD_CACHE.clear()


# -- grids -------------------------------------------------------------------


def _parse_scalar(text: str) -> Any:
    text = text.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_grid(text: str) -> "GridSpec":
    """Parse the CLI grid syntax into a :class:`GridSpec`.

    Syntax: semicolon-separated axes, comma-separated values::

        system=mind,gam;workload=tf;blades=1,2,4;accesses_per_thread=500

    Values parse as int, then float, then bool/none, then string.  Axis
    order is preserved and determines point enumeration order (later axes
    vary fastest).
    """
    axes: Dict[str, List[Any]] = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ValueError(f"bad grid clause {clause!r}: expected axis=v1,v2,...")
        name, _, values = clause.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"bad grid clause {clause!r}: empty axis name")
        if name in axes:
            raise ValueError(f"duplicate grid axis {name!r}")
        parsed = [_parse_scalar(v) for v in values.split(",") if v.strip() != ""]
        if not parsed:
            raise ValueError(f"grid axis {name!r} has no values")
        axes[name] = parsed
    if not axes:
        raise ValueError("empty grid")
    return GridSpec(axes)


@dataclass
class GridSpec:
    """An ordered ``axis -> values`` mapping; expands to sweep points."""

    axes: Dict[str, List[Any]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "GridSpec":
        for name, values in self.axes.items():
            if not values:
                raise ValueError(f"grid axis {name!r} has no values")
            if name in TRACE_KNOBS:
                raise ValueError(
                    f"{name!r} is not a grid axis: tracing is chosen per run "
                    "(execute_point(..., with_trace=True))"
                )
        for system in self.axes.get("system", []):
            if system not in SYSTEMS:
                raise ValueError(
                    f"unknown system {system!r}; choose from {SYSTEMS}"
                )
        for workload in self.axes.get("workload", []):
            scenario_kinds = {
                **{w: "service" for w in SERVICE_WORKLOADS},
                **{w: "topology" for w in TOPOLOGY_WORKLOADS},
                **{w: "allocation" for w in ALLOC_WORKLOADS},
            }
            if (
                workload not in WORKLOAD_BUILDERS
                and workload not in scenario_kinds
            ):
                raise ValueError(
                    f"unknown workload {workload!r}; choose from "
                    f"{sorted([*WORKLOAD_BUILDERS, *scenario_kinds])}"
                )
            if workload in scenario_kinds:
                kind = scenario_kinds[workload]
                for system in self.axes.get("system", ["mind"]):
                    if system != "mind":
                        raise ValueError(
                            f"{kind} workload {workload!r} only runs on "
                            f"the mind system, not {system!r}"
                        )
        return self

    def expand(self, seeds: Sequence[int] = (1,)) -> List[SweepPoint]:
        """Cartesian product of the axes, crossed with ``seeds``.

        Enumeration order is deterministic: axes in declaration order
        (later axes vary fastest), then seeds innermost.  A ``seed`` axis
        in the grid overrides the ``seeds`` argument.
        """
        axes = dict(self.axes)
        axes.setdefault("system", ["mind"])
        axes.setdefault("workload", ["uniform"])
        axes.setdefault("blades", [1])
        axes.setdefault("threads_per_blade", [1])
        if "seed" not in axes:
            axes["seed"] = list(seeds)
        names = list(axes)
        points = []
        for combo in itertools.product(*(axes[n] for n in names)):
            bound = dict(zip(names, combo))
            workload_params = tuple(
                sorted(
                    (k, v)
                    for k, v in bound.items()
                    if k not in STRUCTURAL_AXES and k not in RUNNER_AXES
                )
            )
            runner_params = tuple(
                sorted((k, v) for k, v in bound.items() if k in RUNNER_AXES)
            )
            points.append(
                SweepPoint(
                    system=str(bound["system"]),
                    workload=str(bound["workload"]),
                    num_blades=int(bound["blades"]),
                    threads_per_blade=int(bound["threads_per_blade"]),
                    seed=int(bound["seed"]),
                    workload_params=workload_params,
                    runner_params=runner_params,
                )
            )
        return points

    def to_json(self) -> Dict[str, Any]:
        return {"axes": {k: list(v) for k, v in self.axes.items()}}


@dataclass
class SweepSpec:
    """A full sweep: one or more grids crossed with a seed list."""

    grids: List[GridSpec]
    seeds: List[int] = field(default_factory=lambda: [1])

    def __post_init__(self) -> None:
        if not self.grids:
            raise ValueError("a sweep needs at least one grid")
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")

    @classmethod
    def from_grids(
        cls, grids: Iterable[Any], seeds: Optional[Sequence[int]] = None
    ) -> "SweepSpec":
        parsed = [g if isinstance(g, GridSpec) else parse_grid(str(g)) for g in grids]
        return cls(parsed, list(seeds) if seeds else [1])

    def points(self) -> List[SweepPoint]:
        """All points, deduplicated by identity, in enumeration order."""
        seen: Dict[str, SweepPoint] = {}
        for grid in self.grids:
            for point in grid.expand(self.seeds):
                seen.setdefault(point.point_id, point)
        return list(seen.values())

    def digest(self) -> str:
        """Stable identity of the sweep; resume refuses on mismatch."""
        return _digest(
            {
                "schema": SCHEMA,
                "grids": [g.to_json() for g in self.grids],
                "seeds": list(self.seeds),
            }
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "grids": [g.to_json() for g in self.grids],
            "seeds": list(self.seeds),
        }
