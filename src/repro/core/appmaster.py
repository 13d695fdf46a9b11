"""ApplicationMaster base class (paper §2.2).

Handles everything that is common to any computation paradigm on Fuxi:

- declaring ScheduleUnits and publishing demand **incrementally** (the AM
  mirrors the scheduler's :class:`~repro.core.request.WaitingDemand`
  bookkeeping so both sides agree on outstanding demand);
- consuming grants/revocations from FuxiMaster's grant stream and keeping a
  holdings ledger (containers currently owned, per unit per machine);
- periodic full-state sync with FuxiMaster (the §3.1 safety measure) and
  failover re-sync ("each application master re-sends its ScheduleUnit
  configuration, resource request and location preference");
- sending work plans to FuxiAgents and tracking the worker processes; a
  recovering agent can ask for the expected worker list.

Subclasses (e.g. the DAG JobMaster) implement :meth:`on_granted`,
:meth:`on_revoked`, :meth:`on_worker_started` and friends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.core import messages as msg
from repro.core.grant import Grant
from repro.core.protocol import StreamHub
from repro.core.request import RequestDelta, WaitingDemand
from repro.core.resources import ResourceVector
from repro.core.units import ScheduleUnit, UnitKey
from repro.sim.actor import Actor
from repro.sim.events import EventLoop


@dataclass
class AppMasterConfig:
    master_address: str = "fuxi-master"
    full_sync_interval: float = 30.0
    retransmit_interval: float = 2.0
    heartbeat_interval: float = 1.0
    #: >0 enables §3.4 request batching: demand deltas raised within this
    #: window are merged into one compact message per ScheduleUnit
    #: ("some similar requests ... are merged compactly and handled in a
    #: batch mode").  0 sends every delta immediately.
    coalesce_window: float = 0.0


def app_name(app_id: str) -> str:
    """Bus address of an application's master."""
    return f"app:{app_id}"


class ApplicationMaster(Actor):
    """Base class for application masters."""

    def __init__(self, loop: EventLoop, bus, app_id: str,
                 config: Optional[AppMasterConfig] = None):
        super().__init__(loop, app_name(app_id), bus)
        self.app_id = app_id
        self.config = config or AppMasterConfig()
        self.hub = StreamHub(self)
        self.units: Dict[UnitKey, ScheduleUnit] = {}
        self.demands: Dict[UnitKey, WaitingDemand] = {}
        self.holdings: Dict[UnitKey, Dict[str, int]] = {}
        #: bumped on every change to ``holdings``
        self.holdings_version = 0
        self.work_plans: Dict[str, msg.WorkPlan] = {}
        self.worker_machines: Dict[str, str] = {}
        self._pending_deltas: List[RequestDelta] = []
        self.finished = False
        self._start_timers()

    def dispose(self) -> None:
        super().dispose()
        # Break the actor<->hub cycle so the finished AM's whole graph
        # (books, demands, stream buffers) is freed by refcounting.
        self.hub = None

    # ------------------------------------------------------------------ #
    # public API for subclasses
    # ------------------------------------------------------------------ #

    def define_unit(self, slot_id: int, resources: ResourceVector,
                    priority: int = 100, max_count: int = 10 ** 9) -> ScheduleUnit:
        """Declare a ScheduleUnit and announce it to FuxiMaster."""
        unit = ScheduleUnit(self.app_id, slot_id, resources, priority, max_count)
        self.units[unit.key] = unit
        self._send_request_delta(msg.DefineUnit(unit))
        return unit

    def request(self, unit_key: UnitKey, total: int,
                machine_hints: Optional[Dict[str, int]] = None,
                rack_hints: Optional[Dict[str, int]] = None,
                avoid: Iterable[str] = ()) -> None:
        """Ask for ``total`` more units (or fewer, if negative)."""
        delta = RequestDelta.initial(unit_key, total, machine_hints,
                                     rack_hints, avoid)
        demand = self.demands.setdefault(unit_key, WaitingDemand())
        demand.apply_delta(delta)
        self._emit_demand_delta(delta)

    def send_avoid(self, unit_key: UnitKey, machines: Iterable[str]) -> None:
        """Add machines to the unit's avoidance list (blacklist feedback)."""
        delta = RequestDelta(unit_key=unit_key, avoid_add=frozenset(machines))
        demand = self.demands.setdefault(unit_key, WaitingDemand())
        demand.apply_delta(delta)
        self._emit_demand_delta(delta)

    def _emit_demand_delta(self, delta: RequestDelta) -> None:
        """Send now, or buffer for batch-mode merging (§3.4)."""
        if self.config.coalesce_window <= 0:
            self._send_request_delta(msg.DemandDelta(delta))
            return
        self._pending_deltas.append(delta)
        if len(self._pending_deltas) == 1:
            self.set_timer("coalesce", self.config.coalesce_window,
                           self._flush_coalesced)

    def _flush_coalesced(self) -> None:
        """Merge buffered deltas into one compact message per unit."""
        pending, self._pending_deltas = self._pending_deltas, []
        merged: Dict[UnitKey, RequestDelta] = {}
        #: deltas merged into each unit's message (its payload item count)
        items: Dict[UnitKey, int] = {}
        for delta in pending:
            items[delta.unit_key] = items.get(delta.unit_key, 0) + 1
            existing = merged.get(delta.unit_key)
            if existing is None:
                merged[delta.unit_key] = delta
            else:
                merged[delta.unit_key] = RequestDelta(
                    unit_key=delta.unit_key,
                    cluster_delta=existing.cluster_delta + delta.cluster_delta,
                    hints=existing.hints + delta.hints,
                    avoid_add=(existing.avoid_add | delta.avoid_add)
                    - delta.avoid_remove,
                    avoid_remove=(existing.avoid_remove | delta.avoid_remove)
                    - delta.avoid_add,
                )
        for unit_key, delta in merged.items():
            self._send_request_delta(msg.DemandDelta(delta),
                                     items=items[unit_key])

    def return_grant(self, unit_key: UnitKey, machine: str, count: int) -> None:
        """Give containers back ("only the unit number needs to be sent")."""
        held = self.holdings.get(unit_key, {}).get(machine, 0)
        if count > held:
            raise ValueError(
                f"{self.app_id} returning {count} on {machine} but holds {held}"
            )
        self._adjust_holding(unit_key, machine, -count)
        self._send_request_delta(msg.ReturnResource(unit_key, machine, count))

    def exit_application(self) -> None:
        """Terminate: all resources go back (the simplest protocol form)."""
        self.finished = True
        self.send(self.config.master_address, msg.AppExit(self.app_id))
        self.cancel_all_timers()

    def held_count(self, unit_key: UnitKey, machine: Optional[str] = None) -> int:
        """Containers currently held for a unit (optionally on one machine)."""
        machines = self.holdings.get(unit_key, {})
        if machine is not None:
            return machines.get(machine, 0)
        return sum(machines.values())

    def outstanding(self, unit_key: UnitKey) -> int:
        """Units requested but not yet granted."""
        demand = self.demands.get(unit_key)
        return demand.total if demand else 0

    # ------------------------------------------------------------------ #
    # worker management
    # ------------------------------------------------------------------ #

    def send_work_plan(self, worker_id: str, unit_key: UnitKey, machine: str,
                       spec: Optional[dict] = None) -> msg.WorkPlan:
        """Ask the machine's agent to launch a worker in a held container."""
        unit = self.units[unit_key]
        plan = msg.WorkPlan(self.app_id, worker_id, unit_key,
                            unit.resources, spec or {})
        self.work_plans[worker_id] = plan
        self.worker_machines[worker_id] = machine
        self.send(f"agent:{machine}", plan)
        return plan

    def stop_worker(self, worker_id: str) -> None:
        """Ask the hosting agent to terminate a worker process."""
        machine = self.worker_machines.get(worker_id)
        if machine is None:
            return
        self.send(f"agent:{machine}", msg.StopWorker(self.app_id, worker_id))

    def forget_worker(self, worker_id: str) -> None:
        """Drop a worker from the local books (it no longer exists)."""
        self.work_plans.pop(worker_id, None)
        self.worker_machines.pop(worker_id, None)

    def workers_on(self, machine: str) -> Set[str]:
        """Worker ids this master believes run on ``machine``."""
        return {w for w, m in self.worker_machines.items() if m == machine}

    # ------------------------------------------------------------------ #
    # hooks for subclasses
    # ------------------------------------------------------------------ #

    def on_granted(self, unit_key: UnitKey, machine: str, count: int) -> None:
        """New containers arrived on ``machine``."""

    def on_revoked(self, unit_key: UnitKey, machine: str, count: int) -> None:
        """Containers were revoked (node down / preemption)."""

    def on_worker_started(self, worker_id: str, machine: str) -> None:
        """A work plan came up."""

    def on_worker_failed(self, worker_id: str, machine: str, reason: str) -> None:
        """Launch failed or the worker exited abnormally."""

    def on_master_failover(self) -> None:
        """The FuxiMaster changed incarnation (informational hook)."""

    # ------------------------------------------------------------------ #
    # message plumbing
    # ------------------------------------------------------------------ #

    def handle_message(self, sender: str, message) -> None:
        # One lookup on the message type: the class's _HANDLERS table, which
        # a subclass extends with its own messages (DagJobMaster routes its
        # workers' messages straight to their handlers this way).
        handler = self._HANDLERS.get(type(message))
        if handler is not None:
            handler(self, sender, message)
        else:
            self.handle_app_message(sender, message)

    def handle_app_message(self, sender: str, message) -> None:
        """Subclass extension point for messages outside ``_HANDLERS``."""

    def _on_envelope(self, sender: str, message: msg.Envelope) -> None:
        self.hub.on_envelope(sender, message.inner, self._receiver_factory)

    def _on_ack(self, sender: str, message: msg.Ack) -> None:
        self.hub.on_ack(message)

    def _on_worker_started(self, sender: str,
                           message: msg.WorkerStarted) -> None:
        self.on_worker_started(message.worker_id, message.machine)

    def _on_worker_gone(self, sender: str, message) -> None:
        """``WorkerLaunchFailed`` or ``WorkerExited``."""
        if message.reason != "stopped":
            self.on_worker_failed(message.worker_id, message.machine,
                                  message.reason)
        else:
            self.forget_worker(message.worker_id)

    def _on_resync(self, sender: str, message) -> None:
        """``ResyncRequest`` or ``MasterHello``."""
        self._resync_with_master()

    def _receiver_factory(self, peer: str, kind: str):
        if kind == "grant":
            return self.hub.receiver_for(peer, kind,
                                         self._apply_grant_delta,
                                         self._apply_grant_full)
        return None

    def _send_request_delta(self, payload, items: int = 1) -> None:
        self.hub.sender(self.config.master_address, "req",
                        full_state=self.full_state)
        self.hub.send_delta(self.config.master_address, "req", payload, items)

    # ------------------------------------------------------------------ #
    # grant stream handling
    # ------------------------------------------------------------------ #

    def _apply_grant_delta(self, payload) -> None:
        if not isinstance(payload, msg.GrantBatch):
            return
        for grant in payload.grants:
            self._consume_grant(grant)

    def _consume_grant(self, grant: Grant) -> None:
        self._adjust_holding(grant.unit_key, grant.machine, grant.count)
        if grant.count > 0:
            demand = self.demands.get(grant.unit_key)
            if demand is not None and not demand.is_empty():
                consumable = min(grant.count, demand.total)
                if consumable > 0:
                    demand.consume(grant.machine,
                                   self._rack_of(grant.machine), consumable)
            self.on_granted(grant.unit_key, grant.machine, grant.count)
        else:
            self.on_revoked(grant.unit_key, grant.machine, -grant.count)

    def _apply_grant_full(self, state: Dict[UnitKey, Dict[str, int]]) -> None:
        """Reconcile holdings wholesale; fire hooks for the differences."""
        new: Dict[UnitKey, Dict[str, int]] = {
            k: {m: int(c) for m, c in machines.items() if c > 0}
            for k, machines in state.items()
        }
        old = self.holdings
        self.holdings_version += 1
        keys = set(old) | set(new)
        for unit_key in sorted(keys):
            machines = set(old.get(unit_key, {})) | set(new.get(unit_key, {}))
            for machine in sorted(machines):
                before = old.get(unit_key, {}).get(machine, 0)
                after = new.get(unit_key, {}).get(machine, 0)
                if after > before:
                    self.holdings = new  # hooks may inspect holdings
                    self.on_granted(unit_key, machine, after - before)
                elif before > after:
                    self.holdings = new
                    self.on_revoked(unit_key, machine, before - after)
        self.holdings = new

    def _adjust_holding(self, unit_key: UnitKey, machine: str, delta: int) -> None:
        self.holdings_version += 1
        machines = self.holdings.setdefault(unit_key, {})
        count = machines.get(machine, 0) + delta
        if count > 0:
            machines[machine] = count
        else:
            machines.pop(machine, None)
        if not machines:
            self.holdings.pop(unit_key, None)

    def _rack_of(self, machine: str) -> str:
        agent = self.bus.actor(f"agent:{machine}") if self.bus else None
        return getattr(agent, "rack", "") if agent is not None else ""

    # ------------------------------------------------------------------ #
    # full sync & failover
    # ------------------------------------------------------------------ #

    def full_state(self, recovering: bool = False) -> msg.AppFullState:
        """Complete protocol state (units, demands, holdings) for a full sync."""
        return msg.AppFullState(
            app_id=self.app_id,
            units=tuple(self.units[k] for k in sorted(self.units)),
            demands={k: d.snapshot() for k, d in self.demands.items()},
            holdings={k: dict(m) for k, m in self.holdings.items()},
            recovering=recovering,
        )

    def _periodic_full_sync(self) -> None:
        if self.finished:
            return
        self.hub.sender(self.config.master_address, "req",
                        full_state=self.full_state)
        self.hub.send_full(self.config.master_address, "req", self.full_state(),
                           items=len(self.units) + len(self.demands))

    def _resync_with_master(self) -> None:
        """New FuxiMaster incarnation: restart the stream, re-send everything."""
        self.hub.sender(self.config.master_address, "req",
                        full_state=self.full_state).restart()
        self.hub.send_full(self.config.master_address, "req", self.full_state(),
                           items=len(self.units) + len(self.demands))
        self.on_master_failover()

    def _start_timers(self) -> None:
        self.set_periodic_timer("full-sync", self.config.full_sync_interval,
                                self._periodic_full_sync)
        self.set_periodic_timer("retransmit", self.config.retransmit_interval,
                                self.hub.retransmit_pending)
        self.set_periodic_timer("am-heartbeat", self.config.heartbeat_interval,
                                self._send_heartbeat)

    def _send_heartbeat(self) -> None:
        if not self.finished:
            self.send(self.config.master_address, msg.AppHeartbeat(self.app_id))

    # ------------------------------------------------------------------ #
    # AM failover
    # ------------------------------------------------------------------ #

    def on_crash(self) -> None:
        # Volatile books vanish; subclasses recover from their snapshots.
        self.units = {}
        self.demands = {}
        self.holdings = {}
        self.holdings_version += 1
        self.work_plans = {}
        self.worker_machines = {}

    def on_restart(self) -> None:
        self.hub.restart_all_senders()
        self.hub.reset_receivers()
        self._start_timers()
        self.recover_state()
        self.hub.sender(self.config.master_address, "req",
                        full_state=self.full_state)
        self.hub.send_full(self.config.master_address, "req",
                           self.full_state(recovering=True),
                           items=len(self.units) + len(self.demands))

    def recover_state(self) -> None:
        """Subclass hook: rebuild units/demands from the job snapshot."""

    def _handle_worker_list_request(self, sender: str,
                                    message: msg.WorkerListRequest) -> None:
        plans = tuple(
            self.work_plans[w]
            for w in sorted(self.workers_on(message.machine))
            if w in self.work_plans
        )
        self.send(sender, msg.WorkerListReply(self.app_id, plans))

    #: message type -> handler(self, sender, message).  Keyed on the exact
    #: type: messages are slotted dataclasses and none subclasses another.
    _HANDLERS = {
        msg.Envelope: _on_envelope,
        msg.Ack: _on_ack,
        msg.WorkerStarted: _on_worker_started,
        msg.WorkerLaunchFailed: _on_worker_gone,
        msg.WorkerExited: _on_worker_gone,
        msg.WorkerListRequest: _handle_worker_list_request,
        msg.ResyncRequest: _on_resync,
        msg.MasterHello: _on_resync,
    }
