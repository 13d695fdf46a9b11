"""Fuxi resource management core (paper §3) and fault-tolerance machinery (§4.3).

Public API highlights:

- :class:`~repro.core.resources.ResourceVector` — multi-dimensional resource
  description (physical CPU/memory plus arbitrary named virtual resources).
- :class:`~repro.core.units.ScheduleUnit` — the unit of allocation.
- :class:`~repro.core.request.RequestDelta` — incremental, locality-aware
  demand description.
- :class:`~repro.core.scheduler.FuxiScheduler` — the synchronous scheduling
  core: free pool + locality tree + quota + preemption.
- :class:`~repro.core.master.FuxiMaster` — the actor wrapping the scheduler
  with the incremental protocol, hot-standby failover and blacklisting.
- :class:`~repro.core.agent.FuxiAgent` — the per-machine daemon.
- :class:`~repro.core.appmaster.ApplicationMaster` — base class for
  application masters (the job framework builds on it).

The actor classes (:class:`~repro.core.master.FuxiMaster`,
:class:`~repro.core.agent.FuxiAgent`,
:class:`~repro.core.appmaster.ApplicationMaster`) depend on the cluster
substrate and are imported from their submodules directly to keep the
package import graph acyclic.
"""

from repro.core.resources import ResourceVector, CPU, MEMORY
from repro.core.units import ScheduleUnit, UnitKey
from repro.core.request import LocalityLevel, RequestDelta
from repro.core.grant import Grant, AllocationLedger
from repro.core.scheduler import FuxiScheduler, SchedulerConfig
from repro.core.quota import QuotaGroup, QuotaManager

__all__ = [
    "ResourceVector",
    "CPU",
    "MEMORY",
    "ScheduleUnit",
    "UnitKey",
    "LocalityLevel",
    "RequestDelta",
    "Grant",
    "AllocationLedger",
    "FuxiScheduler",
    "SchedulerConfig",
    "QuotaGroup",
    "QuotaManager",
]
