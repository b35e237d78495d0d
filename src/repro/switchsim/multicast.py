"""Switch multicast engine with egress sharer-list pruning.

MIND sends invalidations by replicating one packet to a multicast group
containing *all* compute blades, embedding the sharer list in the packet,
and dropping copies in the egress pipeline whose output port does not lead
to a sharer (Section 4.3.2).  This costs a single ingress pipeline pass
regardless of sharer count -- the property that makes in-network coherence
latency-efficient -- at the price of replication bandwidth inside the
traffic manager, which we account for via the ``replicated``/``pruned``
counters.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set


class MulticastGroup:
    """A set of egress ports a packet is replicated to."""

    def __init__(self, group_id: int, ports: Iterable[int]):
        self.group_id = group_id
        self.ports: Set[int] = set(ports)

    def add_port(self, port: int) -> None:
        self.ports.add(port)

    def remove_port(self, port: int) -> None:
        self.ports.discard(port)


class MulticastEngine:
    """Replicates packets to group members and applies egress pruning."""

    def __init__(self) -> None:
        self._groups: Dict[int, MulticastGroup] = {}
        self.replicated = 0
        self.pruned = 0
        self.delivered = 0

    def create_group(self, group_id: int, ports: Iterable[int]) -> MulticastGroup:
        if group_id in self._groups:
            raise ValueError(f"multicast group {group_id} already exists")
        group = MulticastGroup(group_id, ports)
        self._groups[group_id] = group
        return group

    def group(self, group_id: int) -> MulticastGroup:
        return self._groups[group_id]

    def replicate(
        self,
        group_id: int,
        sharer_ports: FrozenSet[int],
        exclude_port: int = -1,
    ) -> List[int]:
        """Replicate to the group, pruning non-sharers at egress.

        Returns the ports that actually receive a copy: group members that
        appear in the packet's embedded sharer list, minus the requester
        (``exclude_port``), which must not invalidate itself.
        """
        ports = self._groups[group_id].ports
        out = sorted(p for p in sharer_ports if p in ports and p != exclude_port)
        # One copy per group member; egress drops all but ``out``.
        self.replicated += len(ports)
        self.delivered += len(out)
        self.pruned += len(ports) - len(out)
        return out
