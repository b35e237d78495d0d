"""Multi-rack MIND: sharded directories over a rack/spine topology graph.

Section 8's NUMA-analogy extension, grown into a first-class subsystem:

- :mod:`~repro.multirack.config` -- fabric shape + the spine cost model
  (inter-rack RTT, leaf-spine bandwidth oversubscription).
- :mod:`~repro.multirack.topology` -- the explicit graph: per-rack
  :class:`~repro.cluster.MindCluster` nodes, spine uplinks/downlinks,
  VA-range sharding, spine proxy ports, per-tier link accounting.
- :mod:`~repro.multirack.fabric` -- the assembled system: blade routers,
  fabric-wide process/memory management, per-rack fail-over, telemetry.
- :mod:`~repro.multirack.runner` -- the seeded scenario driver behind the
  ``multirack`` sweep workload and ``multirack-scale`` preset.
- :mod:`~repro.multirack.cli` -- ``python -m repro multirack``.
"""

from .config import MultiRackConfig, RackCapacityError
from .fabric import MultiRackFabric, RackRouter
from .runner import MultiRackScenarioConfig, config_from_params, run_multirack
from .topology import RackNode, ShardMap, SpineProxyPort, Topology

__all__ = [
    "MultiRackConfig",
    "MultiRackFabric",
    "MultiRackScenarioConfig",
    "RackCapacityError",
    "RackNode",
    "RackRouter",
    "ShardMap",
    "SpineProxyPort",
    "Topology",
    "config_from_params",
    "run_multirack",
]
