"""Per-run reports: latency, breakdowns, hotspots, switch-resource peaks.

A :class:`RunReport` condenses one :class:`~repro.sim.stats.RunResult`
into the views the paper's figures are built from: latency summaries with
p50/p99, the span-derived fault-path breakdown (with a consistency check
that the components sum to the measured end-to-end latency), the top
queueing hotspots by accumulated wait time, and the switch-resource peaks
(directory SRAM, match-action rules, recirculations).

Render as text (``render()``) or machine-readable JSON (``to_json()``);
``python -m repro report`` wraps both behind a CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..sim.stats import LatencySummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.stats import RunResult

#: gauge-key prefixes the telemetry capture uses (see MindCluster).
WAIT_PREFIX = "wait_us:"
UTIL_PREFIX = "utilization:"

#: switch-resource counters surfaced as "peaks" in the report.
_PEAK_COUNTERS = (
    "directory_peak",
    "directory_final",
    "match_action_rules",
    "pipeline_passes",
    "recirculations",
)

#: transaction-engine counters surfaced as their own report section.
_TXN_COUNTERS = (
    "txn_admitted",
    "pending_table_peak",
    "txn_conflict_waits",
    "coalesced_fetches",
    "faults_coalesced",
    "memory_fetches",
    "capacity_evictions",
)


@dataclass
class RunReport:
    """A rendered-friendly digest of one run."""

    meta: Dict[str, Any]
    latencies: Dict[str, LatencySummary]
    fault_breakdown: Dict[str, float]
    #: relative error between the span components' sum and the measured
    #: total end-to-end fault latency (0.0 when they agree exactly).
    fault_breakdown_error: float
    invalidation_breakdown: Dict[str, float]
    hotspots: List[Tuple[str, float]]
    utilizations: List[Tuple[str, float]]
    switch_peaks: Dict[str, int]
    #: pending-transaction-table digest (admissions, coalescing, conflicts);
    #: empty when the run recorded no transaction-engine counters.
    txn_engine: Dict[str, int]
    counters: Dict[str, int]
    timeseries_peaks: Dict[str, float] = field(default_factory=dict)
    #: fault-injection / fail-over digest; empty for fault-free runs.
    availability: Dict[str, Any] = field(default_factory=dict)
    #: windowed telemetry document (see ``repro.telemetry``); empty when
    #: the run did not enable telemetry.
    timeline: Dict[str, Any] = field(default_factory=dict)
    #: SLO evaluation over the timeline; empty without telemetry.
    slo: Dict[str, Any] = field(default_factory=dict)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_result(cls, result: "RunResult") -> "RunReport":
        stats = result.stats
        # One snapshot: every category is sorted/summarized once and the
        # cached summaries are shared with later readers (sweep metrics).
        latencies = stats.snapshot()
        fault_breakdown = stats.breakdown("fault_path")
        total_fault_us = float(sum(stats.latencies.get("fault", ())))
        span_sum = sum(fault_breakdown.values())
        if total_fault_us > 0:
            error = abs(span_sum - total_fault_us) / total_fault_us
        else:
            error = 0.0 if span_sum == 0 else 1.0
        hotspots = sorted(
            (
                (name[len(WAIT_PREFIX):], value)
                for name, value in stats.gauges.items()
                if name.startswith(WAIT_PREFIX)
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        utilizations = sorted(
            (
                (name[len(UTIL_PREFIX):], value)
                for name, value in stats.gauges.items()
                if name.startswith(UTIL_PREFIX)
            ),
            key=lambda kv: (-kv[1], kv[0]),
        )
        peaks = {
            name: stats.counter(name)
            for name in _PEAK_COUNTERS
            if name in stats.counters
        }
        txn_engine = {
            name: stats.counter(name)
            for name in _TXN_COUNTERS
            if name in stats.counters
        }
        series_peaks = {
            name: max(v for _t, v in points)
            for name, points in sorted(stats.timeseries.items())
            if points
        }
        availability = cls._availability_section(stats)
        timeline_doc: Dict[str, Any] = {}
        slo_doc: Dict[str, Any] = {}
        if stats.timeline is not None:
            from ..telemetry import evaluate_slos

            timeline_doc = stats.timeline.to_json()
            slo_doc = evaluate_slos(stats.timeline).to_json()
        return cls(
            meta={
                "system": result.system,
                "workload": result.workload,
                "num_blades": result.num_blades,
                "num_threads": result.num_threads,
                "runtime_us": result.runtime_us,
                "total_accesses": result.total_accesses,
                "throughput_iops": result.throughput_iops,
            },
            latencies=latencies,
            fault_breakdown=fault_breakdown,
            fault_breakdown_error=error,
            invalidation_breakdown=stats.breakdown("invalidation"),
            hotspots=hotspots,
            utilizations=utilizations,
            switch_peaks=peaks,
            txn_engine=txn_engine,
            counters=dict(sorted(stats.counters.items())),
            timeseries_peaks=series_peaks,
            availability=availability,
            timeline=timeline_doc,
            slo=slo_doc,
        )

    #: counters whose presence marks a run as fault-injected.
    _FAULT_MARKERS = (
        "switch_crashes",
        "link_packets_dropped",
        "blade_outages",
        "blade_slowdowns",
        "blade_requests_refused",
        "control_cpu_stalls",
    )

    @classmethod
    def _availability_section(cls, stats) -> Dict[str, Any]:
        """Digest the fault/fail-over telemetry, if the run had any.

        Captures the quantities the robustness experiments assert on: the
        total unavailability window, retry/timeout volume, the re-fault
        storm depth (faults served while the rebuilt directory re-warms),
        and the degraded-vs-steady-state p99 comparison.
        """
        fault_injected = any(m in stats.counters for m in cls._FAULT_MARKERS)
        if not fault_injected and "unavailability_us" not in stats.gauges:
            return {}
        section: Dict[str, Any] = {}
        for name in (
            "switch_crashes",
            "failovers_completed",
            "failover_rules_installed",
            "link_packets_dropped",
            "link_bytes_dropped",
            "retransmissions",
            "link_retransmissions",
            "resets",
            "stale_transactions",
            "faults_reissued",
            "blade_timeouts",
            "blade_requests_refused",
            "blade_outages",
            "blade_slowdowns",
            "control_cpu_stalls",
        ):
            if name in stats.counters:
                section[name] = stats.counter(name)
        if "unavailability_us" in stats.gauges:
            section["unavailability_us"] = stats.gauges["unavailability_us"]
        outages = stats.latencies.get("outage_window")
        if outages:
            section["outage_windows"] = [float(v) for v in outages]
        # Re-fault storm depth: faults absorbed while service was degraded
        # (gate wait + directory re-warm), i.e. the recovery backlog.
        degraded = stats.latencies.get("fault:phase:degraded")
        if degraded:
            section["refault_storm_depth"] = len(degraded)
        phases = {}
        for phase in ("pre", "degraded", "post"):
            cat = f"fault:phase:{phase}"
            if stats.latencies.get(cat):
                phases[phase] = stats.latency_summary(cat)
        if phases:
            section["phase_p99_us"] = {p: s.p99 for p, s in phases.items()}
            section["phase_counts"] = {p: s.count for p, s in phases.items()}
            pre = phases.get("pre")
            post = phases.get("post")
            if pre and post and pre.p99 > 0:
                # Recovery check: post-fail-over steady-state tail vs the
                # pre-fault baseline (acceptance: within 10%).
                section["post_vs_pre_p99"] = post.p99 / pre.p99
        return section

    # -- export ----------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "meta": self.meta,
            "latencies": {
                cat: {
                    "count": s.count,
                    "mean": s.mean,
                    "p50": s.p50,
                    "p99": s.p99,
                    "p999": s.p999,
                    "max": s.max,
                }
                for cat, s in self.latencies.items()
            },
            "fault_breakdown": self.fault_breakdown,
            "fault_breakdown_error": self.fault_breakdown_error,
            "invalidation_breakdown": self.invalidation_breakdown,
            "hotspots": [{"name": n, "wait_us": w} for n, w in self.hotspots],
            "utilizations": [
                {"name": n, "utilization": u} for n, u in self.utilizations
            ],
            "switch_peaks": self.switch_peaks,
            "txn_engine": self.txn_engine,
            "counters": self.counters,
            "timeseries_peaks": self.timeseries_peaks,
            "availability": self.availability,
            "timeline": self.timeline,
            "slo": self.slo,
        }

    def render(self, top: int = 8) -> str:
        m = self.meta
        lines: List[str] = []
        lines.append(
            f"run report: {m['system']} / {m['workload']} -- "
            f"{m['num_blades']} blades, {m['num_threads']} threads"
        )
        lines.append(
            f"  runtime {m['runtime_us']:.1f} us, "
            f"{m['total_accesses']} accesses, "
            f"{m['throughput_iops'] / 1e6:.2f} M IOPS"
        )
        if self.latencies:
            lines.append("")
            lines.append("latency (us):")
            lines.append(
                f"  {'category':<24s}{'count':>8s}{'mean':>9s}"
                f"{'p50':>9s}{'p99':>9s}{'p99.9':>9s}{'max':>9s}"
            )
            lines.extend(
                f"  {cat:<24s}{s.count:>8d}{s.mean:>9.2f}"
                f"{s.p50:>9.2f}{s.p99:>9.2f}{s.p999:>9.2f}{s.max:>9.2f}"
                for cat, s in self.latencies.items()
            )
        if self.fault_breakdown:
            total = sum(self.fault_breakdown.values())
            lines.append("")
            lines.append(
                "fault-path breakdown (span components; "
                f"sum vs end-to-end: {self.fault_breakdown_error * 100:.2f}% off):"
            )
            for comp, us in sorted(
                self.fault_breakdown.items(), key=lambda kv: -kv[1]
            ):
                share = 100.0 * us / total if total else 0.0
                lines.append(f"  {comp:<24s}{us:>12.1f} us  {share:>5.1f}%")
        if self.invalidation_breakdown:
            lines.append("")
            lines.append("invalidation handling (total us across blades):")
            lines.extend(
                f"  {comp:<24s}{us:>12.1f} us"
                for comp, us in sorted(
                    self.invalidation_breakdown.items(), key=lambda kv: -kv[1]
                )
            )
        if self.hotspots:
            lines.append("")
            lines.append(f"top queueing hotspots (accumulated wait, top {top}):")
            for name, wait in self.hotspots[:top]:
                util = dict(self.utilizations).get(name)
                util_str = f"  util {util * 100:.1f}%" if util is not None else ""
                lines.append(f"  {name:<28s}{wait:>12.1f} us{util_str}")
        if self.switch_peaks:
            lines.append("")
            lines.append("switch resources:")
            lines.extend(
                f"  {name:<28s}{value:>12d}"
                for name, value in self.switch_peaks.items()
            )
        if self.txn_engine:
            lines.append("")
            lines.append("transaction engine (pending-table activity):")
            lines.extend(
                f"  {name:<28s}{self.txn_engine[name]:>12d}"
                for name in _TXN_COUNTERS
                if name in self.txn_engine
            )
        if self.timeseries_peaks:
            lines.append("")
            lines.append("sampled series peaks:")
            lines.extend(
                f"  {name:<28s}{value:>12.1f}"
                for name, value in self.timeseries_peaks.items()
            )
        if self.availability:
            a = self.availability
            lines.append("")
            lines.append("availability (fault injection / fail-over):")
            if "unavailability_us" in a:
                lines.append(
                    f"  {'unavailability':<28s}{a['unavailability_us']:>12.1f} us"
                    f"  ({a.get('switch_crashes', 0)} crash(es), "
                    f"{a.get('failovers_completed', 0)} fail-over(s))"
                )
            for name in (
                "retransmissions",
                "link_retransmissions",
                "link_packets_dropped",
                "resets",
                "stale_transactions",
                "faults_reissued",
                "blade_timeouts",
                "blade_outages",
                "blade_slowdowns",
                "control_cpu_stalls",
            ):
                if name in a:
                    lines.append(f"  {name:<28s}{a[name]:>12d}")
            if "refault_storm_depth" in a:
                lines.append(
                    f"  {'refault_storm_depth':<28s}{a['refault_storm_depth']:>12d}"
                )
            if "phase_p99_us" in a:
                phase_bits = "  ".join(
                    f"{p}={v:.2f}us" for p, v in a["phase_p99_us"].items()
                )
                lines.append(f"  p99 by phase: {phase_bits}")
            if "post_vs_pre_p99" in a:
                lines.append(
                    f"  post/pre p99 ratio: {a['post_vs_pre_p99']:.3f}"
                )
        lines.extend(self.render_timeline())
        lines.extend(self.render_slo())
        return "\n".join(lines)

    #: windows rendered before eliding the middle of a long timeline.
    _TIMELINE_ROWS = 40

    def render_timeline(self) -> List[str]:
        """The windowed-telemetry section (empty without telemetry)."""
        if not self.timeline:
            return []
        windows = self.timeline.get("windows", [])
        lines: List[str] = [""]
        lines.append(
            f"timeline ({self.timeline['window_us']:g} us windows, "
            f"{self.timeline['num_windows']} total):"
        )
        # Lead with the category an SLO would watch: open-loop end-to-end
        # latency when measured, the coherence fault path otherwise.
        categories = {
            cat for w in windows for cat in w.get("latencies", {})
        }
        primary = (
            "openloop:latency" if "openloop:latency" in categories
            else "fault" if "fault" in categories
            else (sorted(categories)[0] if categories else None)
        )
        if primary is not None:
            lines.append(f"  category: {primary}")
            lines.append(
                f"  {'window':>7s}{'t_start':>10s}  {'phase':<9s}"
                f"{'count':>7s}{'p50':>9s}{'p99':>9s}{'p99.9':>9s}{'max':>9s}"
            )
            rows = windows
            elided = 0
            if len(rows) > self._TIMELINE_ROWS:
                head = self._TIMELINE_ROWS // 2
                elided = len(rows) - 2 * head
                rows = list(rows[:head]) + list(rows[-head:])
            half = self._TIMELINE_ROWS // 2
            for i, w in enumerate(rows):
                if elided and i == half:
                    lines.append(f"  ... {elided} windows elided ...")
                stats = w.get("latencies", {}).get(primary)
                phase = w.get("phase", "-")
                if stats is None:
                    lines.append(
                        f"  {w['window']:>7d}{w['t_start']:>10.0f}  "
                        f"{phase:<9s}{0:>7d}{'-':>9s}{'-':>9s}{'-':>9s}{'-':>9s}"
                    )
                else:
                    lines.append(
                        f"  {w['window']:>7d}{w['t_start']:>10.0f}  "
                        f"{phase:<9s}{int(stats['count']):>7d}"
                        f"{stats['p50']:>9.2f}{stats['p99']:>9.2f}"
                        f"{stats['p999']:>9.2f}{stats['max']:>9.2f}"
                    )
        marks = self.timeline.get("marks", [])
        if marks:
            lines.append("  marks: " + ", ".join(
                f"{label}@{t:.0f}us" for t, label in marks
            ))
        return lines

    def render_slo(self) -> List[str]:
        """The SLO burn-rate section (empty without telemetry)."""
        if not self.slo or not self.slo.get("objectives"):
            return []
        from ..telemetry.slo import render_objectives

        verdict = "met" if self.slo.get("met") else "MISSED"
        return ["", f"slo objectives ({verdict}):", *render_objectives(self.slo)]
