"""Simulated datacenter substrate.

Stands in for the physical testbed of the paper's evaluation: machines with
multi-dimensional capacities arranged in racks, a message transport with
latency and (optional) duplication/reordering, a lease-based lock service
(the Apsara lock stand-in used for FuxiMaster hot-standby election), a block
placement map (the Pangu stand-in that yields locality hints), the
metrics registry, and a fault injector implementing the four §5.4 scenarios.
"""

from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.topology import ClusterTopology
from repro.cluster.network import MessageBus, NetworkConfig
from repro.cluster.lockservice import LockService
from repro.cluster.blockstore import BlockStore
from repro.cluster.faults import FaultInjector, FaultPlan
from repro.obs.histogram import MetricsRegistry

__all__ = [
    "MachineSpec",
    "MachineState",
    "ClusterTopology",
    "MessageBus",
    "NetworkConfig",
    "LockService",
    "BlockStore",
    "MetricsRegistry",
    "FaultInjector",
    "FaultPlan",
]
