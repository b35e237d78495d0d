"""Rendering and serialization for service-scenario results."""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, List

from ..telemetry.slo import render_objectives
from .scenario import ServiceResult


def render_service_report(sr: ServiceResult) -> List[str]:
    """Human-readable availability/SLO report, one string per line."""
    cfg = sr.config
    res = sr.result
    lines: List[str] = []
    lines.append(f"service {cfg.name}: {cfg.tenants} tenants x "
                 f"{cfg.clients_per_tenant} clients x "
                 f"{cfg.requests_per_client} requests  (seed {cfg.seed})")
    lines.append(
        f"  rack: {cfg.num_compute_blades} compute / "
        f"{cfg.num_memory_blades} memory blades; chaos={cfg.chaos}; "
        f"admission={'on' if cfg.admission else 'off'}; "
        f"storm_defense={'on' if cfg.storm_defense else 'off'}"
    )
    lines.append(
        f"  runtime {res.runtime_us / 1e3:.1f} ms simulated, "
        f"{sr.completed} requests completed, "
        f"final slots {int(res.stats.gauges.get('svc:slots_final', 0))}"
    )
    if sr.chaos_description:
        lines.append("chaos plan:")
        lines.extend(f"  {ln}" for ln in sr.chaos_description)
    if sr.outage_windows:
        spans = ", ".join(
            f"[{s / 1e3:.2f}, {e / 1e3:.2f}] ms" for s, e in sr.outage_windows
        )
        lines.append(f"switch outage windows: {spans}")
    if sr.scale_events:
        ups = sum(1 for _, kind, _ in sr.scale_events if kind == "up")
        downs = len(sr.scale_events) - ups
        lines.append(f"autoscaler: {ups} scale-up(s), {downs} scale-down(s)")
        for t, kind, blade in sr.scale_events:
            where = f" -> blade {blade}" if blade is not None else ""
            lines.append(f"  {t / 1e3:9.2f} ms  {kind}{where}")
    if sr.storm_windows:
        spans = ", ".join(
            f"[{s / 1e3:.2f}, {e / 1e3:.2f}] ms" for s, e in sr.storm_windows
        )
        lines.append(f"retry storms detected: {spans}")
    lines.append("per-tenant availability:")
    lines.append(
        "  tenant  arrivals  done  retries  shed  failed  avail    "
        "p999_us  slo_ok  unavail_ms"
    )
    for t in sr.tenants:
        lines.append(
            f"  t{t.tenant:<6d}{t.arrivals:9d}{t.completions:6d}"
            f"{t.retries:9d}{t.shed:6d}{t.failed:8d}"
            f"{t.availability:8.1%}{t.p999_us:10.1f}"
            f"{t.slo_compliance:8.1%}{t.unavailability_us / 1e3:11.2f}"
        )
    lines.append("slo report:")
    lines.extend(f"  {ln}" for ln in render_objectives(sr.slo.to_json()))
    return lines


def service_result_to_json(sr: ServiceResult) -> Dict[str, Any]:
    """A byte-stable JSON document (sorted keys, no wall-clock data)."""
    doc: Dict[str, Any] = {
        "config": asdict(sr.config),
        "runtime_us": sr.result.runtime_us,
        "completed": sr.completed,
        "serving_start_us": sr.serving_start_us,
        "tenants": [asdict(t) for t in sr.tenants],
        "slo": sr.slo.to_json(),
        "scale_events": [
            {"t_us": t, "kind": kind, "blade": blade}
            for t, kind, blade in sr.scale_events
        ],
        "storm_windows": [list(w) for w in sr.storm_windows],
        "outage_windows": [list(w) for w in sr.outage_windows],
        "chaos": sr.chaos_description,
        "counters": {
            k: v for k, v in sorted(sr.result.stats.counters.items())
            if k.startswith("svc:") or k.startswith("failover")
        },
    }
    return doc


def dump_service_json(sr: ServiceResult) -> str:
    return json.dumps(service_result_to_json(sr), indent=2, sort_keys=True)
