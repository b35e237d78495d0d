"""Configuration for the multi-rack fabric: topology shape + spine model.

The fabric is a two-tier leaf-spine graph: one home switch per rack (a
full single-rack MIND data plane) and a spine tier every cross-rack
packet traverses.  The spine is modelled by two real links per rack --
an uplink (rack switch -> spine) and a downlink (spine -> rack switch)
-- whose bandwidth encodes the classic leaf-spine *oversubscription*
ratio: a rack's uplink aggregates all of its blades' edge links but is
provisioned at ``1/oversubscription`` of their summed capacity, so
cross-rack bandwidth ceilings and queueing emerge from contention on
those shared links rather than from a fudge constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.mmu import MindConfig
from ..sim.network import NetworkConfig


class RackCapacityError(ValueError):
    """A rack was configured beyond ``max_memory_blades_per_rack``.

    The VA slice each rack is home for is sized by the *maximum* blade
    count, so a rack hosting more blades than that would allocate
    addresses aliasing its neighbour's slice and faults on them would be
    routed to the wrong home switch.  Raised at construction instead of
    silently mis-slicing.
    """


@dataclass
class MultiRackConfig:
    """Shape of the multi-rack fabric."""

    num_racks: int = 2
    compute_blades_per_rack: int = 2
    memory_blades_per_rack: int = 1
    cache_capacity_pages: int = 1024
    #: extra one-way propagation a packet pays to cross the spine (two
    #: extra hops: rack switch -> spine switch -> rack switch).  Each hop
    #: contributes half of this (:attr:`spine_hop_us`).
    spine_extra_us: float = 3.4
    #: maximum memory blades a rack may ever host (sizes the VA slices).
    max_memory_blades_per_rack: int = 8
    #: leaf-spine oversubscription: the ratio of a rack's aggregate edge
    #: bandwidth to its spine uplink bandwidth (4:1 is the classic
    #: datacenter provisioning point).
    oversubscription: float = 4.0
    #: enable windowed telemetry on the fabric's shared stats collector.
    telemetry: bool = False
    mind: MindConfig = field(default_factory=lambda: MindConfig(
        memory_blade_capacity=1 << 28, enable_bounded_splitting=False
    ))
    network: NetworkConfig = field(default_factory=NetworkConfig)

    @property
    def rack_va_span(self) -> int:
        return self.max_memory_blades_per_rack * self.mind.memory_blade_capacity

    @property
    def spine_hop_us(self) -> float:
        """One-way propagation of one spine hop (rack <-> spine switch)."""
        return self.spine_extra_us / 2.0

    def spine_link_config(self) -> NetworkConfig:
        """Latency/bandwidth constants for one spine uplink or downlink."""
        edge_gbps = self.network.link_bandwidth_gbps
        capacity = (
            edge_gbps * max(self.compute_blades_per_rack, 1)
            / self.oversubscription
        )
        return replace(
            self.network,
            link_propagation_us=self.spine_hop_us,
            link_bandwidth_gbps=capacity,
        )

    def spine_crossing_us(self, size_bytes: int) -> float:
        """Unloaded one-way cost of crossing the spine with ``size_bytes``:
        a forwarding pass through the source rack's pipeline plus two
        spine hops (serialization + propagation each)."""
        spine = self.spine_link_config()
        return self.network.switch_pipeline_us + 2 * (
            self.spine_hop_us + spine.serialization_us(size_bytes)
        )

    def validate(self) -> "MultiRackConfig":
        """Reject impossible shapes; returns self for chaining."""
        if self.num_racks < 1:
            raise ValueError(f"num_racks must be >= 1, got {self.num_racks}")
        if self.compute_blades_per_rack < 1:
            raise ValueError(
                "compute_blades_per_rack must be >= 1, "
                f"got {self.compute_blades_per_rack}"
            )
        if self.memory_blades_per_rack < 1:
            raise ValueError(
                "memory_blades_per_rack must be >= 1, "
                f"got {self.memory_blades_per_rack}"
            )
        if self.oversubscription <= 0:
            raise ValueError(
                f"oversubscription must be > 0, got {self.oversubscription}"
            )
        if self.memory_blades_per_rack > self.max_memory_blades_per_rack:
            raise RackCapacityError(
                f"memory_blades_per_rack={self.memory_blades_per_rack} exceeds "
                f"max_memory_blades_per_rack={self.max_memory_blades_per_rack}: "
                "the VA slice a rack is home for is sized by the maximum, so "
                "the excess blades' addresses would alias the next rack's slice"
            )
        return self
