"""Deterministic fault injection and switch fail-over (Section 4.4).

- :mod:`repro.faults.plan` -- declarative, seeded fault schedules.
- :mod:`repro.faults.injector` -- arms a plan on a running cluster.
- :mod:`repro.faults.failover` -- the in-simulation switch fail-over
  sequence (detection, rebuild-from-replica, quiesce, re-warm).
"""

from .failover import FailoverConfig, FailoverOrchestrator
from .injector import FaultInjector
from .plan import (
    BladeOutage,
    BladeSlowdown,
    ControlCpuStall,
    FaultEventError,
    FaultOverlapError,
    FaultPlan,
    FaultPlanError,
    LinkLossWindow,
    SwitchCrash,
)

__all__ = [
    "BladeOutage",
    "BladeSlowdown",
    "ControlCpuStall",
    "FailoverConfig",
    "FailoverOrchestrator",
    "FaultEventError",
    "FaultInjector",
    "FaultOverlapError",
    "FaultPlan",
    "FaultPlanError",
    "LinkLossWindow",
    "SwitchCrash",
]
