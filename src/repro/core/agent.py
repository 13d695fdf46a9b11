"""FuxiAgent: the per-machine daemon (paper §2.2, §4.3.1).

Responsibilities reproduced here:

- periodic heartbeat to FuxiMaster with capacity and a raw health sample;
- launching application workers from work plans, **only when the machine's
  allocation books show sufficient granted resource** (resource capacity
  ensurance);
- killing workers compulsorily when an application's granted capacity drops
  below what its running workers consume;
- no restart of a worker that crashes on its own: its JobMaster notices
  the silence (``DagJobMaster.WORKER_SILENCE_TIMEOUT``) and replaces it;
- transparent failover: a restarting agent **adopts** the worker processes
  that kept running, asks each application master for its expected worker
  list, and asks FuxiMaster for a fresh allocation sync.

Resource isolation (Cgroup limits, sandbox root folders) is enforced
arithmetically: a worker simply cannot be launched into capacity that is not
granted, and over-capacity workers are killed worst-offender-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cluster.machine import MachineState
from repro.core import messages as msg
from repro.core.grant import Grant, book_entry_hash, books_digest
from repro.core.heartbeat import HeartbeatCohort
from repro.core.protocol import StreamHub
from repro.core.resources import ResourceVector
from repro.core.units import UnitKey
from repro.obs.tracer import NULL_TRACER
from repro.sim.actor import EMPTY, Actor
from repro.sim.events import EventLoop


@dataclass
class FuxiAgentConfig:
    """Timing knobs.

    ``worker_start_delay`` models binary download + process start; the paper
    measures it at ~11.8 s with 400 MB packages (Table 2).  Scaled-down
    defaults keep simulations quick; experiments override them.
    """

    heartbeat_interval: float = 1.0
    retransmit_interval: float = 2.0
    worker_start_delay: float = 0.4
    master_address: str = "fuxi-master"


def agent_name(machine: str) -> str:
    """Bus address of a machine's FuxiAgent."""
    return f"agent:{machine}"


class FuxiAgent(Actor):
    """The node daemon."""

    def __init__(self, loop: EventLoop, bus, machine_state: MachineState,
                 config: Optional[FuxiAgentConfig] = None,
                 worker_factory: Optional[Callable[[msg.WorkPlan, str], "object"]] = None,
                 tracer=None):
        super().__init__(loop, agent_name(machine_state.spec.name), bus)
        self.machine_state = machine_state
        self.config = config or FuxiAgentConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Made on first use (see ``hub``): most agents of a large cluster
        # never receive an envelope.
        self._hub: Optional[StreamHub] = None
        self.worker_factory = worker_factory
        # allocation books: granted units per (app, slot) on this machine,
        # plus the incrementally-maintained digest the heartbeat carries
        # (§3.1 safety sync without copying the books every beat);
        # EMPTY until the first grant
        self.allocations: Dict[UnitKey, int] = EMPTY
        self._book_version = 0
        self._book_digest = 0
        # running workers: worker_id -> plan; plus how many run per unit,
        # a unit kept at 0 once its last worker goes, so units keep the
        # order of their first launch (EMPTY until the first launch, see
        # _add_worker)
        self.workers: Dict[str, msg.WorkPlan] = EMPTY
        self._unit_workers: Dict[UnitKey, int] = EMPTY
        self.launch_rejects = 0
        # the periodic beat: a membership, not a timer of this agent's own
        self._cohort: Optional[HeartbeatCohort] = None
        self._start_timers()

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #

    @property
    def machine(self) -> str:
        return self.machine_state.spec.name

    @property
    def rack(self) -> str:
        return self.machine_state.spec.rack

    @property
    def capacity(self) -> ResourceVector:
        return self.machine_state.spec.capacity

    @property
    def hub(self) -> StreamHub:
        """The agent's stream hub, made by its first envelope, ack or
        sender.  Agents normally have no outgoing streams; the retransmit
        timer is armed lazily the first time one appears instead of
        ticking idly on thousands of machines."""
        hub = self._hub
        if hub is None:
            hub = self._hub = StreamHub(self,
                                        on_first_sender=self._arm_retransmit)
        return hub

    def _start_timers(self) -> None:
        # Beat every heartbeat_interval from now on, together with every
        # agent started in this instant (first firing one interval out) ...
        self._cohort = HeartbeatCohort.join(self)
        if self._hub is not None and self._hub.has_senders():
            self._arm_retransmit()
        # ... and once right away, with the agents started in this instant
        # (the first beat is the one that registers the machine).
        self._cohort.beat_now(self)

    def cancel_all_timers(self) -> None:
        """Cancel every timer, the periodic beat included (crash, dispose)."""
        super().cancel_all_timers()
        cohort, self._cohort = self._cohort, None
        if cohort is not None:
            cohort.leave(self)

    def _arm_retransmit(self) -> None:
        self.set_periodic_timer("retransmit", self.config.retransmit_interval,
                                self.hub.retransmit_pending)

    def _send_heartbeat(self) -> None:
        """One beat as a message of its own.  Beats travel as cohort
        batches (:class:`~repro.core.heartbeat.HeartbeatBatch`), the
        immediate first beats included, and come through here only when
        the transport duplicates or reorders."""
        if not self.alive:
            return
        # A heartbeat is in flight for a network delay, so it carries value
        # snapshots taken at send time (the health sample by reference: it
        # is replaced, never mutated).
        self.send(self.config.master_address, msg.AgentHeartbeat(
            machine=self.machine, rack=self.rack,
            capacity=self.capacity,  # "can be changed at any time" (§3.2.1)
            health_sample=self.machine_state.health_sample(),
            book_version=self._book_version,
            book_digest=self._book_digest))

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #

    def handle_message(self, sender: str, message) -> None:
        # One lookup on the message type (see _HANDLERS at the class end).
        handler = self._HANDLERS.get(type(message))
        if handler is not None:
            handler(self, sender, message)

    def _on_envelope(self, sender: str, message: msg.Envelope) -> None:
        self.hub.on_envelope(sender, message.inner, self._receiver_factory)

    def _on_ack(self, sender: str, message: msg.Ack) -> None:
        self.hub.on_ack(message)

    def _on_resync_request(self, sender: str,
                           message: msg.ResyncRequest) -> None:
        self._send_full_state()

    def _receiver_factory(self, peer: str, kind: str):
        if kind == "alloc":
            return self.hub.receiver_for(peer, kind,
                                         self._apply_allocation_delta,
                                         self._apply_allocation_full)
        return None

    # ------------------------------------------------------------------ #
    # allocation bookkeeping (FuxiMaster -> agent stream)
    # ------------------------------------------------------------------ #

    def _apply_allocation_delta(self, payload) -> None:
        if not isinstance(payload, msg.AllocationUpdate):
            return
        for grant in payload.grants:
            self._apply_grant(grant)
        self._enforce_capacity()

    def _apply_allocation_full(self, state: Dict[UnitKey, int]) -> None:
        self.allocations = ({k: int(v) for k, v in state.items() if v > 0}
                            or EMPTY)
        self._book_version += 1
        self._book_digest = books_digest(self.allocations)
        self._enforce_capacity()

    def _apply_grant(self, grant: Grant) -> None:
        books = self.allocations
        old = books.get(grant.unit_key, 0)
        count = old + grant.count
        if count > 0:
            if books is EMPTY:
                books = self.allocations = {}
            books[grant.unit_key] = count
        elif old:
            del books[grant.unit_key]
        digest = self._book_digest
        if old:
            digest ^= book_entry_hash(grant.unit_key, old)
        if count > 0:
            digest ^= book_entry_hash(grant.unit_key, count)
        self._book_digest = digest
        self._book_version += 1

    def _enforce_capacity(self) -> None:
        """Kill workers of units whose grants shrank below worker count.

        Victim choice: the paper kills "the process whose real resource usage
        exceeds its own resource usage most"; with per-unit uniform workers
        that reduces to killing the most recently started ones first.
        """
        for unit_key, running in list(self._unit_workers.items()):
            excess = running - self.allocations.get(unit_key, 0)
            if excess <= 0:
                continue
            worker_ids = [worker_id
                          for worker_id, plan in self.workers.items()
                          if plan.unit_key == unit_key]
            for worker_id in sorted(worker_ids, reverse=True)[:excess]:
                self._kill_worker(worker_id, reason="capacity-revoked")

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #

    def _handle_work_plan(self, sender: str, plan: msg.WorkPlan) -> None:
        if plan.worker_id in self.workers:
            # duplicate plan (retry); adopt idempotently
            return
        if self.machine_state.launch_failures:
            self.launch_rejects += 1
            self.send(sender, msg.WorkerLaunchFailed(
                plan.worker_id, self.machine, "launch-failure"))
            return
        allowed = self.allocations.get(plan.unit_key, 0)
        running = self._unit_workers.get(plan.unit_key, 0)
        if running >= allowed:
            self.launch_rejects += 1
            self.send(sender, msg.WorkerLaunchFailed(
                plan.worker_id, self.machine, "insufficient-resource"))
            return
        self._add_worker(plan)
        delay = self.config.worker_start_delay * self.machine_state.slow_factor
        incarnation = self._incarnation
        self.loop.call_after(delay, self._finish_launch, plan, incarnation)

    def _add_worker(self, plan: msg.WorkPlan) -> None:
        if self.workers is EMPTY:
            self.workers, self._unit_workers = {}, {}
        self.workers[plan.worker_id] = plan
        counts = self._unit_workers
        counts[plan.unit_key] = counts.get(plan.unit_key, 0) + 1

    def _finish_launch(self, plan: msg.WorkPlan, incarnation: int) -> None:
        if not self.alive or incarnation != self._incarnation:
            return
        if plan.worker_id not in self.workers:
            return  # stopped while starting
        if self.worker_factory is not None:
            self.worker_factory(plan, self.machine)
        self.send(f"app:{plan.app_id}",
                  msg.WorkerStarted(plan.worker_id, self.machine))

    def _handle_stop_worker(self, sender: str, message: msg.StopWorker) -> None:
        if message.worker_id not in self.workers:
            return
        self._kill_worker(message.worker_id, reason="stopped")

    def _kill_worker(self, worker_id: str, reason: str) -> None:
        workers = self.workers
        plan = workers.pop(worker_id, None) if workers else None
        if plan is None:
            return
        self._unit_workers[plan.unit_key] -= 1
        worker = self.bus.actor(f"worker:{worker_id}") if self.bus else None
        if worker is not None and worker.alive:
            worker.crash()
        if self.bus is not None:
            self.bus.unregister(f"worker:{worker_id}")
        self.send(f"app:{plan.app_id}",
                  msg.WorkerExited(worker_id, self.machine, reason))

    # ------------------------------------------------------------------ #
    # failover (paper §4.3.1 "FuxiAgent Failover")
    # ------------------------------------------------------------------ #

    def on_crash(self) -> None:
        # Worker processes are independent; they keep running.  Only the
        # agent's own volatile books vanish.  The version stays monotonic
        # across incarnations so the master never mistakes a post-restart
        # digest for a stale pre-crash one.
        self.allocations = EMPTY
        self._book_version += 1
        self._book_digest = 0
        self.workers = self._unit_workers = EMPTY

    def on_restart(self) -> None:
        """Adopt running workers, then rebuild books from AMs and FuxiMaster."""
        span = self.tracer.start_span("agent.adopt", detached=True,
                                      machine=self.machine)
        if self._hub is not None:
            self._hub.restart_all_senders()
            self._hub.reset_receivers()
        adopted = self._collect_running_workers()
        apps = set()
        for plan in adopted:
            self._add_worker(plan)
            apps.add(plan.app_id)
        for app_id in sorted(apps):
            self.send(f"app:{app_id}", msg.WorkerListRequest(self.machine))
        # Ask FuxiMaster for "the full granted resource amount ... for each
        # application" so the books can be rebuilt.
        self.send(self.config.master_address,
                  msg.ResyncRequest(master=self.name, epoch=0))
        self._start_timers()
        self.tracer.end_span(span, workers=len(adopted), apps=len(apps))

    def _collect_running_workers(self) -> List[msg.WorkPlan]:
        """Find worker processes of this machine still alive (simulated ps)."""
        if self.bus is None:
            return []
        return [worker.plan for worker in self.bus.hosted_on(self.machine)]

    def _handle_worker_list_reply(self, sender: str,
                                  reply: msg.WorkerListReply) -> None:
        """Reconcile adopted workers against the AM's expectations."""
        expected = {plan.worker_id: plan for plan in reply.plans}
        for worker_id, plan in list(self.workers.items()):
            if plan.app_id != reply.app_id:
                continue
            if worker_id not in expected:
                self._kill_worker(worker_id, reason="not-expected")
        # Missing workers are the AM's to re-plan; it learns what is running
        # from worker registrations and re-sends plans for the rest.

    def allocation_books(self) -> Dict[UnitKey, int]:
        """Copy of the agent's hard-state allocation books (invariant probe)."""
        return dict(self.allocations)

    def _send_full_state(self) -> None:
        self.send(self.config.master_address, msg.AgentFullState(
            machine=self.machine,
            rack=self.rack,
            capacity=self.capacity,
            allocations=dict(self.allocations),
        ))

    # ------------------------------------------------------------------ #
    # app master hosting
    # ------------------------------------------------------------------ #

    def _handle_launch_app_master(self, sender: str, message: msg.LaunchAppMaster) -> None:
        if self.machine_state.launch_failures:
            return  # master's AM heartbeat timeout will pick a new agent
        incarnation = self._incarnation
        delay = message.description.get("am_start_delay", 0.2)

        def start() -> None:
            if not self.alive or incarnation != self._incarnation:
                return
            # The AM actor is constructed by the cluster services actor
            # (it lives with the scheduler, possibly in another process
            # than this agent), so the "fork" is a message, not a call.
            self.send("cluster-svc", msg.AppMasterSpawn(
                message.app_id, message.description, self.machine))
            self.send(self.config.master_address,
                      msg.AppMasterStarted(message.app_id, self.machine))

        self.loop.call_after(delay * self.machine_state.slow_factor, start)

    #: message type -> handler(self, sender, message).  Keyed on the exact
    #: type: messages are slotted dataclasses and none subclasses another.
    _HANDLERS = {
        msg.Envelope: _on_envelope,
        msg.Ack: _on_ack,
        msg.WorkPlan: _handle_work_plan,
        msg.StopWorker: _handle_stop_worker,
        msg.WorkerListReply: _handle_worker_list_reply,
        msg.ResyncRequest: _on_resync_request,
        msg.LaunchAppMaster: _handle_launch_app_master,
    }
