"""The explicit topology graph: rack nodes, a spine tier, VA sharding.

This is the refactor Section 8 asks for: instead of one singleton
cluster, each rack instantiates a full :class:`~repro.cluster.MindCluster`
as a *node* in a graph (shared engine and stats, rack-unique port-id
namespace), and the coherence directory is range-partitioned across the
rack switches by :class:`ShardMap`.  Cross-rack traffic is carried by
:class:`~repro.sim.network.CompositePath` chains built from real shared
links -- the blade's own edge link, a forwarding pass through its rack's
pipeline, and the per-rack spine uplink/downlink -- so inter-rack RTT,
bandwidth oversubscription and transit queueing all emerge from the same
FIFO-resource link model the single rack uses.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from ..cluster import ClusterConfig, MindCluster
from ..sim.engine import Engine
from ..sim.network import CompositePath, Link, Port
from ..sim.stats import StatsCollector
from .config import MultiRackConfig

#: port-id stride between racks; every rack's ports stay globally unique
#: (they key each rack's coherence registries).
PORT_ID_STRIDE = 100_000


class ShardMap:
    """Range partition of the global VA space across rack switches."""

    def __init__(self, num_racks: int, rack_span: int):
        self.num_racks = num_racks
        self.rack_span = rack_span

    def home_rack(self, va: int) -> int:
        """The rack whose switch is home (directory owner) for ``va``."""
        rack = int(va) // self.rack_span
        if not 0 <= rack < self.num_racks:
            raise ValueError(f"va {va:#x} outside every rack's partition")
        return rack

    def rack_range(self, rack: int) -> Tuple[int, int]:
        """The ``(base, length)`` VA slice ``rack`` is home for."""
        return rack * self.rack_span, self.rack_span


class SpineProxyPort:
    """How a remote rack's switch sees a blade: same port id, spine paths.

    The home switch's protocol code is completely unchanged -- distance is
    encoded in the port, which is the NUMA analogy made literal.  Both
    directions are :class:`CompositePath` chains over *shared* real links,
    so concurrent cross-rack transactions contend for the blade's NIC and
    the spine uplinks exactly like real transit traffic.
    """

    def __init__(
        self,
        name: str,
        port_id: int,
        to_switch: CompositePath,
        from_switch: CompositePath,
    ):
        self.name = name
        self.port_id = port_id
        self.to_switch = to_switch
        self.from_switch = from_switch

    @property
    def links(self) -> Tuple[CompositePath, CompositePath]:
        return (self.to_switch, self.from_switch)

    def packets_dropped(self) -> int:
        # Drops are accounted on the underlying real links.
        return 0


class RackNode:
    """One vertex of the topology graph: a rack cluster + its spine links."""

    def __init__(self, index: int, cluster: MindCluster, uplink: Link, downlink: Link):
        self.index = index
        self.cluster = cluster
        #: rack switch -> spine switch (shared by all cross-rack senders
        #: in this rack -- the oversubscribed aggregation link).
        self.uplink = uplink
        #: spine switch -> rack switch.
        self.downlink = downlink

    @property
    def mmu(self):
        return self.cluster.mmu

    @property
    def network(self):
        return self.cluster.network

    @property
    def coherence(self):
        return self.cluster.mmu.coherence


class Topology:
    """The assembled graph: rack nodes over a spine tier, plus sharding."""

    def __init__(self, config: MultiRackConfig):
        self.config = config.validate()
        self.engine = Engine()
        self.stats = StatsCollector()
        self.shard = ShardMap(config.num_racks, config.rack_va_span)
        self.racks: List[RackNode] = []
        spine_cfg = config.spine_link_config()
        for r in range(config.num_racks):
            cluster = MindCluster(
                ClusterConfig(
                    num_compute_blades=0,  # the fabric places blades itself
                    num_memory_blades=config.memory_blades_per_rack,
                    cache_capacity_pages=config.cache_capacity_pages,
                    store_data=True,
                    mind=replace(config.mind, va_base=r * config.rack_va_span),
                    network=config.network,
                ),
                engine=self.engine,
                stats=self.stats,
                port_id_base=r * PORT_ID_STRIDE,
            )
            uplink = Link(self.engine, spine_cfg, f"rack{r}->spine")
            downlink = Link(self.engine, spine_cfg, f"spine->rack{r}")
            self.racks.append(RackNode(r, cluster, uplink, downlink))

    def spine_proxy(self, port: Port, src_rack: int, dst_rack: int) -> SpineProxyPort:
        """Build the proxy port rack ``dst_rack`` knows blade ``port`` by.

        Request direction (blade -> remote home switch): the blade's real
        edge uplink, a forwarding pass through its own rack's pipeline,
        then up to the spine and down into the destination rack.  The
        reply direction mirrors it.  Every spine-tier step banks its time
        for the fault path's span attribution.
        """
        src = self.racks[src_rack]
        dst = self.racks[dst_rack]
        forward = src.mmu.pipeline.forward
        to_switch = CompositePath(
            self.engine,
            f"{port.name}=>rack{dst_rack}",
            [
                (CompositePath.LINK, port.to_switch, "edge"),
                (CompositePath.PROC, forward, "spine"),
                (CompositePath.LINK, src.uplink, "spine"),
                (CompositePath.LINK, dst.downlink, "spine"),
            ],
        )
        from_switch = CompositePath(
            self.engine,
            f"rack{dst_rack}=>{port.name}",
            [
                (CompositePath.LINK, dst.uplink, "spine"),
                (CompositePath.LINK, src.downlink, "spine"),
                (CompositePath.PROC, forward, "spine"),
                (CompositePath.LINK, port.from_switch, "edge"),
            ],
        )
        return SpineProxyPort(
            f"{port.name}@rack{dst_rack}", port.port_id, to_switch, from_switch
        )

    # -- per-tier link accounting ---------------------------------------

    def tier_accounting(self) -> Dict[str, float]:
        """Aggregate per-tier link totals (bounded cardinality: these stay
        a handful of values no matter how many blades the fabric holds)."""
        edge_bytes = sum(n.network.total_bytes() for n in self.racks)
        edge_dropped = sum(n.network.total_packets_dropped() for n in self.racks)
        spine_bytes = 0
        spine_dropped = 0
        spine_util = 0.0
        for node in self.racks:
            for link in (node.uplink, node.downlink):
                spine_bytes += link.bytes_carried
                spine_dropped += link.packets_dropped
                spine_util = max(spine_util, link.utilization())
        return {
            "edge_bytes": float(edge_bytes),
            "edge_packets_dropped": float(edge_dropped),
            "spine_bytes": float(spine_bytes),
            "spine_packets_dropped": float(spine_dropped),
            "spine_utilization_max": spine_util,
            "spine_forwards": float(
                sum(n.mmu.pipeline.forwards for n in self.racks)
            ),
        }
