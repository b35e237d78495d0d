"""Staged match-action pipeline model.

A Tofino processes each packet through a fixed sequence of match-action
units (MAUs), each with limited per-packet compute; complex logic must be
spread across stages or *recirculated* through the pipeline for another
pass.  MIND needs recirculation for directory updates: MAU-1 holds the
directory entries and performs the lookup, MAU-2 holds the materialized
state-transition table (STT), and the packet is recirculated so MAU-1 can
apply the update the STT selected (Section 6.3, Fig. 4).

The per-stage compute limit is enforced *per packet pass* via
:class:`PacketPass`: a packet may perform at most ``max_ops_per_pass``
table operations in a given MAU before it must recirculate.  Many packets
are in flight concurrently; each carries its own pass context.

The pipeline runs at line rate (6.4 Tbps), so per-packet queueing inside
the switch is negligible for our traffic; the model charges the fixed
traversal latency and counts passes/recirculations so benchmarks can
report switch-side costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List

from ..sim.engine import Engine
from ..sim.network import NetworkConfig


class MauComputeError(RuntimeError):
    """Raised when a packet asks one MAU for more work than one pass allows."""


@dataclass
class Mau:
    """One match-action unit: a named stage with bounded per-pass compute."""

    name: str
    max_ops_per_pass: int = 1
    total_ops: int = field(default=0, repr=False)


class PacketPass:
    """Per-packet pipeline context enforcing per-MAU op limits per pass."""

    def __init__(self, pipeline: "SwitchPipeline"):
        self._pipeline = pipeline
        self._ops: Dict[str, int] = {}
        self.passes = 0

    def execute(self, mau: Mau, op: Callable[[], Any]) -> Any:
        """Run one table operation in ``mau`` during the current pass."""
        if self.passes == 0:
            raise MauComputeError("packet has not traversed the pipeline yet")
        used = self._ops.get(mau.name, 0)
        if used >= mau.max_ops_per_pass:
            raise MauComputeError(
                f"MAU {mau.name}: exceeded {mau.max_ops_per_pass} op(s) per pass; "
                "recirculate instead"
            )
        self._ops[mau.name] = used + 1
        mau.total_ops += 1
        tracer = self._pipeline.engine.tracer
        if tracer.enabled:
            tracer.instant(
                self._pipeline.engine.now,
                "switch",
                f"mau:{mau.name}",
                track=tracer.track("switch"),
            )
        return op()

    def _pass(self, name: str, dur: float) -> Generator:
        self.passes += 1
        self._ops.clear()
        self._pipeline.passes += 1
        tracer = self._pipeline.engine.tracer
        if tracer.enabled:
            tracer.complete(
                self._pipeline.engine.now,
                dur,
                "switch",
                name,
                track=tracer.track("switch"),
            )
        yield dur

    def traverse(self) -> Generator:
        """One full pipeline pass for this packet."""
        return self._pass("pipeline_pass", self._pipeline.config.switch_pipeline_us)

    def recirculate(self) -> Generator:
        """Send this packet around for another pass (extra latency)."""
        self._pipeline.recirculations += 1
        return self._pass(
            "recirculate",
            self._pipeline.config.recirculation_us
            + self._pipeline.config.switch_pipeline_us,
        )


class SwitchPipeline:
    """The ingress/egress pipeline: stage registry plus global counters."""

    def __init__(self, engine: Engine, config: NetworkConfig):
        self.engine = engine
        self.config = config
        self.stages: List[Mau] = []
        self.passes = 0
        self.recirculations = 0
        #: spine-bound packets this switch forwarded without MAU work
        #: (multi-rack transit traffic through this rack's switch).
        self.forwards = 0

    def forward(self) -> Generator:
        """One forwarding pass for a spine-bound packet.

        The packet enters this switch's pipeline only to be routed toward
        the spine tier -- no MAU table operations -- so it pays the
        traversal latency but is counted separately from coherence passes,
        letting per-rack accounting report pure transit load.
        """
        self.forwards += 1
        yield self.config.switch_pipeline_us
        return True

    def add_stage(self, name: str, max_ops_per_pass: int = 1) -> Mau:
        if any(m.name == name for m in self.stages):
            raise ValueError(f"duplicate MAU stage name: {name}")
        mau = Mau(name, max_ops_per_pass)
        self.stages.append(mau)
        return mau

    def stage(self, name: str) -> Mau:
        for mau in self.stages:
            if mau.name == name:
                return mau
        raise KeyError(f"no MAU stage named {name}")

    def packet(self) -> PacketPass:
        """A fresh per-packet pass context."""
        return PacketPass(self)
