"""Message types exchanged between Fuxi components.

All messages are plain frozen dataclasses dispatched on type by the actors.
Demand/grant traffic additionally travels inside protocol envelopes
(:mod:`repro.core.protocol`) so ordering and idempotency hold under an
unreliable transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Tuple

from repro.core.grant import Grant
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.units import ScheduleUnit, UnitKey


# ------------------------------------------------------------------ #
# application master -> FuxiMaster (payloads inside protocol envelopes)
# ------------------------------------------------------------------ #

@dataclass(frozen=True, slots=True)
class DefineUnit:
    """Declare (or redeclare) a ScheduleUnit definition."""

    unit: ScheduleUnit


@dataclass(frozen=True, slots=True)
class DemandDelta:
    """Incremental change to demand (the paper's resource request message)."""

    delta: RequestDelta


@dataclass(frozen=True, slots=True)
class ReturnResource:
    """Give back ``count`` granted units on ``machine``."""

    unit_key: UnitKey
    machine: str
    count: int


@dataclass(frozen=True, slots=True)
class AppFullState:
    """Periodic full-state sync from an app master (safety measure, §3.1).

    Also re-sent during FuxiMaster failover: "each application master
    re-sends its ScheduleUnit configuration, resource request and location
    preference."
    """

    app_id: str
    units: Tuple[ScheduleUnit, ...]
    demands: Dict[UnitKey, dict]
    holdings: Dict[UnitKey, Dict[str, int]]
    recovering: bool = False


@dataclass(frozen=True, slots=True)
class AppExit:
    """Application finished; all its resources return to the pool."""

    app_id: str


@dataclass(frozen=True, slots=True)
class AppHeartbeat:
    """Lightweight AM liveness signal; FuxiMaster restarts silent AMs."""

    app_id: str


@dataclass(frozen=True, slots=True)
class SubmitJob:
    """Client -> FuxiMaster: launch an application (hard state, checkpointed)."""

    app_id: str
    description: dict
    group: str = "default"


@dataclass(frozen=True, slots=True)
class BlacklistReport:
    """JobMaster -> FuxiMaster: this machine looks bad from where I stand."""

    job_id: str
    machine: str


# ------------------------------------------------------------------ #
# FuxiMaster -> application master
# ------------------------------------------------------------------ #

@dataclass(frozen=True, slots=True)
class GrantBatch:
    """Grants/revocations for one application (may mix signs)."""

    grants: Tuple[Grant, ...]


@dataclass(frozen=True, slots=True)
class MasterHello:
    """New (or failed-over) FuxiMaster announcing itself; peers must re-sync."""

    master: str
    epoch: int


@dataclass(frozen=True, slots=True)
class ResyncRequest:
    """Failover soft-state recollection: peers must send their full state."""

    master: str
    epoch: int


# ------------------------------------------------------------------ #
# FuxiAgent <-> FuxiMaster
# ------------------------------------------------------------------ #

@dataclass(slots=True)
class AgentHeartbeat:
    """Periodic agent report: capacity, load, health — and a *digest* of the
    agent's allocation books, so the master can detect drift in O(1) (the
    §3.1 "full state periodically ... to fix any possible inconsistency"
    safety measure, applied to the master↔agent stream).

    ``book_digest`` is the XOR of :func:`repro.core.grant.book_entry_hash`
    over the agent's books; the master maintains the same digest per machine
    inside its ledger and compares two integers instead of two dicts.  On
    mismatch it pushes the full books wholesale (the existing repair path).
    ``book_version`` increments on every book mutation, so an unchanged
    (version, digest) pair additionally certifies the books have not moved
    between beats.

    A beat is delivered a network delay after it was sent (twice, if the
    bus duplicates it), so its fields are value snapshots taken at send
    time, not references into mutable agent state; ``health_sample`` may be
    shared between beats because ``MachineState`` replaces its sample dict
    instead of mutating it.  Periodic beats travel as columns of a
    :class:`~repro.core.heartbeat.HeartbeatBatch`; one is materialised as
    this message only when the master cannot fold it as a no-op.
    """

    #: :meth:`payload_bytes`: capacity vector + version + digest ...
    HEADER_BYTES: ClassVar[int] = 48
    #: ... and one key/value pair of the health sample
    SAMPLE_ENTRY_BYTES: ClassVar[int] = 16

    machine: str
    rack: str
    capacity: ResourceVector
    health_sample: Dict[str, float] = field(default_factory=dict)
    book_version: int = 0
    book_digest: int = 0

    def payload_bytes(self) -> int:
        """Serialized-size proxy: what this beat would cost on a real wire.

        Fixed header (capacity vector, version, digest) plus the health
        sample's key/value pairs.  The benchmark sums this per received
        heartbeat into ``fm.heartbeat_bytes`` to track the win over
        shipping a book dict copy (which cost ~40 bytes per entry).
        """
        return (self.HEADER_BYTES + len(self.machine) + len(self.rack)
                + self.SAMPLE_ENTRY_BYTES * len(self.health_sample))


@dataclass(frozen=True, slots=True)
class AgentFullState:
    """Agent's allocation books, re-sent during FuxiMaster failover."""

    machine: str
    rack: str
    capacity: ResourceVector
    allocations: Dict[UnitKey, int]


@dataclass(frozen=True, slots=True)
class AllocationUpdate:
    """FuxiMaster -> agent: the granted amount for units on this machine."""

    grants: Tuple[Grant, ...]


@dataclass(frozen=True, slots=True)
class LaunchAppMaster:
    """FuxiMaster -> agent: start an application master process."""

    app_id: str
    description: dict


@dataclass(frozen=True, slots=True)
class AppMasterStarted:
    """Agent -> FuxiMaster: the app master process is up."""

    app_id: str
    machine: str


@dataclass(frozen=True, slots=True)
class AppMasterSpawn:
    """Agent -> cluster services: instantiate the app-master actor.

    In the real system the agent forks the AM process locally; in the
    simulation the agent asks the cluster's service actor to construct
    the AM actor instead of reaching into the runtime, so the spawn is a
    message with its own delivery delay on the ``(agent, cluster-svc)``
    edge.
    """

    app_id: str
    description: dict
    machine: str


# ------------------------------------------------------------------ #
# application master <-> FuxiAgent (work plans), worker <-> masters
# ------------------------------------------------------------------ #

@dataclass(frozen=True, slots=True)
class WorkPlan:
    """App master -> agent: launch a worker inside a granted container."""

    app_id: str
    worker_id: str
    unit_key: UnitKey
    resources: ResourceVector
    spec: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class StopWorker:
    """App master -> agent: terminate a worker (resource being returned)."""

    app_id: str
    worker_id: str


@dataclass(frozen=True, slots=True)
class WorkerStarted:
    """Agent -> app master: worker process is running."""

    worker_id: str
    machine: str


@dataclass(frozen=True, slots=True)
class WorkerLaunchFailed:
    """Agent -> app master: process could not be started (bad disk etc.)."""

    worker_id: str
    machine: str
    reason: str


@dataclass(frozen=True, slots=True)
class WorkerExited:
    """Agent -> app master: worker process ended (crash or kill)."""

    worker_id: str
    machine: str
    reason: str


@dataclass(frozen=True, slots=True)
class WorkerListRequest:
    """Recovering agent -> app master: which of my workers should exist?"""

    machine: str


@dataclass(frozen=True, slots=True)
class WorkerListReply:
    """App master -> recovering agent: expected workers on that machine."""

    app_id: str
    plans: Tuple[WorkPlan, ...]


# ------------------------------------------------------------------ #
# generic
# ------------------------------------------------------------------ #

@dataclass(frozen=True, slots=True)
class Ack:
    """Stream acknowledgement for retransmission bookkeeping."""

    stream: str
    epoch: int
    seq: int


@dataclass(frozen=True, slots=True)
class Envelope:
    """Protocol envelope carrier (wraps Delta/FullSync envelopes on the bus)."""

    inner: Any
