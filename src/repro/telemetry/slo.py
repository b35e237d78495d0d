"""SLO objectives and error-budget burn-rate accounting over timelines.

An :class:`SloObjective` is the SRE-style statement "percentile P of
latency category C stays below T microseconds in at least ``target`` of
windows".  :func:`evaluate_slos` checks each objective against every
non-empty window of a :class:`~.windows.MetricsTimeline`:

- **compliance** is the fraction of evaluated windows that met the
  threshold;
- the **error budget** is the fraction of windows the target permits to
  violate (``1 - target``); the **burn rate** is the ratio of the
  observed violation fraction to that budget.  Burn rate 1.0 means the
  run consumed its budget exactly; above 1.0 the objective is missed.
- violations are attributed to the service phase
  (``pre``/``degraded``/``post``) active in each violating window, so a
  fail-over report can show the burn concentrated in the outage.

Windows with no samples of the objective's category are excluded from
compliance (an idle window neither meets nor misses a latency target);
they remain visible in the timeline document itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .windows import MetricsTimeline

#: snapshot-latency keys by percentile rank.
_STAT_KEYS = {50.0: "p50", 99.0: "p99", 99.9: "p999", 100.0: "max"}


@dataclass(frozen=True)
class SloObjective:
    """One windowed latency objective."""

    name: str
    #: latency category the objective watches (e.g. ``fault``,
    #: ``openloop:latency``).
    category: str
    #: percentile rank evaluated per window (50, 99, 99.9 or 100).
    percentile: float
    #: the latency bound, in simulated microseconds.
    threshold_us: float
    #: required fraction of evaluated windows meeting the bound.
    target: float = 0.99

    def __post_init__(self) -> None:
        if self.percentile not in _STAT_KEYS:
            raise ValueError(
                f"objective percentile must be one of {sorted(_STAT_KEYS)}, "
                f"got {self.percentile!r}"
            )
        if not 0.0 < self.target <= 1.0:
            raise ValueError("objective target must be in (0, 1]")
        if self.threshold_us <= 0:
            raise ValueError("objective threshold must be positive")

    @property
    def stat_key(self) -> str:
        return _STAT_KEYS[self.percentile]

    def describe(self) -> str:
        return (
            f"{self.name}: {self.category} {self.stat_key} "
            f"<= {self.threshold_us:g} us in {self.target:.1%} of windows"
        )


#: objectives evaluated by default: the coherence fault path (every MIND
#: run records it) and the open-loop end-to-end latency (when measured).
DEFAULT_OBJECTIVES: Sequence[SloObjective] = (
    SloObjective("fault-p99", "fault", 99.0, 60.0, target=0.99),
    SloObjective("fault-p999", "fault", 99.9, 250.0, target=0.999),
    SloObjective("openloop-p99", "openloop:latency", 99.0, 200.0, target=0.99),
    SloObjective(
        "openloop-p999", "openloop:latency", 99.9, 1_000.0, target=0.999
    ),
)


@dataclass
class SloResult:
    """One objective's verdict over a timeline."""

    objective: SloObjective
    windows_evaluated: int
    windows_violating: int
    #: violating window indices, in time order.
    violations: List[int] = field(default_factory=list)
    #: phase -> violating-window count (phases only when tracked).
    violations_by_phase: Dict[str, int] = field(default_factory=dict)

    @property
    def compliance(self) -> float:
        if self.windows_evaluated == 0:
            return 1.0
        return 1.0 - self.windows_violating / self.windows_evaluated

    @property
    def burn_rate(self) -> float:
        """Observed violation fraction over the allowed fraction."""
        if self.windows_evaluated == 0:
            return 0.0
        budget = 1.0 - self.objective.target
        observed = self.windows_violating / self.windows_evaluated
        if budget == 0.0:
            return 0.0 if observed == 0.0 else float("inf")
        return observed / budget

    @property
    def met(self) -> bool:
        return self.compliance >= self.objective.target

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.objective.name,
            "category": self.objective.category,
            "percentile": self.objective.percentile,
            "threshold_us": self.objective.threshold_us,
            "target": self.objective.target,
            "windows_evaluated": self.windows_evaluated,
            "windows_violating": self.windows_violating,
            "compliance": self.compliance,
            "burn_rate": self.burn_rate,
            "met": self.met,
            "violations": list(self.violations),
            "violations_by_phase": dict(sorted(self.violations_by_phase.items())),
        }


@dataclass
class SloReport:
    """All evaluated objectives for one run."""

    window_us: float
    results: List[SloResult] = field(default_factory=list)

    @property
    def met(self) -> bool:
        return all(r.met for r in self.results)

    def to_json(self) -> Dict[str, Any]:
        return {
            "window_us": self.window_us,
            "met": self.met,
            "objectives": [r.to_json() for r in self.results],
        }


def render_objectives(doc: Dict[str, Any]) -> List[str]:
    """One line per objective (plus its phase split) of an
    :meth:`SloReport.to_json` document."""
    lines = []
    for obj in doc["objectives"]:
        status = "met" if obj["met"] else "MISSED"
        lines.append(
            f"  {obj['name']:<16s} {status:<7s}"
            f"compliance {obj['compliance']:7.2%}  "
            f"burn {obj['burn_rate']:6.2f}x  "
            f"({obj['windows_violating']}/{obj['windows_evaluated']} windows over "
            f"{obj['threshold_us']:g} us {_STAT_KEYS[obj['percentile']]})"
        )
        by_phase = obj["violations_by_phase"]
        if by_phase:
            phase_bits = ", ".join(f"{p}={n}" for p, n in sorted(by_phase.items()))
            lines.append(f"    violations by phase: {phase_bits}")
    return lines


def evaluate_slos(
    timeline: MetricsTimeline,
    objectives: Optional[Sequence[SloObjective]] = None,
) -> SloReport:
    """Evaluate ``objectives`` (default :data:`DEFAULT_OBJECTIVES`) over
    ``timeline``.  Objectives whose category never appears are skipped,
    so the default set applies cleanly to both closed- and open-loop
    runs."""
    if objectives is None:
        objectives = DEFAULT_OBJECTIVES
    snapshots = timeline.snapshots()
    categories = set(timeline.categories())
    report = SloReport(window_us=timeline.window_us)
    for objective in objectives:
        if objective.category not in categories:
            continue
        result = SloResult(objective, windows_evaluated=0, windows_violating=0)
        for snap in snapshots:
            stats = snap.latencies.get(objective.category)
            if stats is None:
                continue
            result.windows_evaluated += 1
            if stats[objective.stat_key] > objective.threshold_us:
                result.windows_violating += 1
                result.violations.append(snap.index)
                if snap.phase is not None:
                    result.violations_by_phase[snap.phase] = (
                        result.violations_by_phase.get(snap.phase, 0) + 1
                    )
        report.results.append(result)
    return report
