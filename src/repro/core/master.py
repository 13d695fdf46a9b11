"""FuxiMaster: the central resource manager actor (paper §2.2, §3, §4.3.1).

Wraps the synchronous :class:`~repro.core.scheduler.FuxiScheduler` with:

- the incremental protocol streams to application masters (requests in,
  grants out) and FuxiAgents (allocation updates out, heartbeats in);
- **hot-standby failover**: two FuxiMaster processes contend for a lease on
  the lock service; the primary serves, the standby watches.  On takeover
  the new primary loads *hard* state from the checkpoint store (application
  configs, quota groups, cluster blacklist) and rebuilds *soft* state from
  peers: agents re-send capacity + per-app allocations, application masters
  re-send units + demands.  A short recovery window batches the reports,
  after which the rebuilt ledger resumes scheduling;
- faulty-node handling: heartbeat timeouts remove machines (revoking their
  grants), persistent low health scores and cross-job blacklist reports
  disable machines (paper §4.3.2's cluster level);
- application-master supervision: silent AMs are restarted on a fresh agent.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass, field
from sys import intern
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.lockservice import LockService
from repro.cluster.network import Messages
from repro.core import messages as msg
from repro.core.blacklist import BlacklistConfig, ClusterBlacklist
from repro.core.checkpoint import CheckpointStore
from repro.core.grant import Grant
from repro.core.health import HealthMonitor
from repro.core.protocol import StreamHub
from repro.core.quota import DEFAULT_GROUP, QuotaGroup
from repro.core.request import WaitingDemand
from repro.core.scheduler import FuxiScheduler, SchedulerConfig
from repro.core.units import UnitKey
from repro.kernels.heartbeat import make_time_column
from repro.obs.histogram import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.sim.actor import Actor
from repro.sim.events import EventLoop


@dataclass
class FuxiMasterConfig:
    """Timing and policy knobs for the master."""

    alias: str = "fuxi-master"
    lock_name: str = "fuxi-master-lock"
    lease: float = 4.0
    renew_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    liveness_check_interval: float = 1.0
    app_master_timeout: float = 8.0
    recovery_window: float = 3.0
    retransmit_interval: float = 2.0
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    blacklist: BlacklistConfig = field(default_factory=BlacklistConfig)
    health_threshold: float = 0.5
    health_grace: float = 60.0


class FuxiMaster(Actor):
    """One FuxiMaster process; run two for hot standby."""

    def __init__(self, loop: EventLoop, bus, name: str,
                 locks: LockService, checkpoint: CheckpointStore,
                 config: Optional[FuxiMasterConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 runtime: Optional[Any] = None,
                 tracer: Optional[Any] = None):
        super().__init__(loop, name, bus)
        self.config = config or FuxiMasterConfig()
        self.locks = locks
        self.checkpoint = checkpoint
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._failover_span = None
        self.runtime = runtime
        self.hub = StreamHub(self)
        self.role = "candidate"
        self.scheduler: Optional[FuxiScheduler] = None
        self.blacklist = ClusterBlacklist(self.config.blacklist)
        self.health = HealthMonitor(threshold=self.config.health_threshold,
                                    grace_seconds=self.config.health_grace)
        self.recovering = False
        self.failovers = 0
        # Running FNV-1a fold over every disseminated grant, in send order:
        # two runs with equal digests issued the identical grant stream
        # (reported as summary_dict()["grant_stream"]).
        self.grant_stream_digest = 0xCBF29CE484222325
        self.grants_disseminated = 0
        # Last-beat timestamps in arrival order: per-beat updates are O(1)
        # dict stores; _check_liveness's staleness roll-up is one pass.
        self._last_agent_seen = make_time_column()
        self._last_app_seen: Dict[str, float] = {}
        self._app_master_machine: Dict[str, str] = {}
        # AM-placement index: machine -> count of AMs hosted there, plus a
        # lazy min-heap of (load, machine) entries.  Entries go stale when a
        # load changes or a machine dies; _pick_am_machine discards them on
        # peek instead of rescanning every live agent per submission.
        self._am_hosted: Dict[str, int] = {}
        self._am_heap: List[Tuple[int, str]] = []
        self._pending_agent_reports: Dict[str, msg.AgentFullState] = {}
        self._pending_allocations: Dict[str, Dict[UnitKey, int]] = {}
        self._pending_am_holdings: Dict[str, Dict[UnitKey, int]] = {}
        #: machine -> arrival of a beat whose digest differed with nothing
        #: in flight; drift if the machine's next beat differs too
        self._drift_suspects: Dict[str, float] = {}
        self._dispatch: Dict[type, Callable[[str, Any], None]] = {
            msg.Envelope: self._handle_envelope,
            msg.Ack: self._handle_ack,
            msg.AgentHeartbeat: self._handle_agent_heartbeat,
            msg.AgentFullState:
                lambda sender, m: self._handle_agent_full_state(m),
            msg.ResyncRequest: self._handle_agent_resync_request,
            msg.AppExit: lambda sender, m: self._handle_app_exit(m.app_id),
            msg.AppHeartbeat: self._handle_app_heartbeat,
            msg.BlacklistReport:
                lambda sender, m: self._handle_blacklist_report(m),
            msg.AppMasterStarted: self._handle_am_started,
        }
        self._campaign()

    # ------------------------------------------------------------------ #
    # election / roles
    # ------------------------------------------------------------------ #

    @property
    def is_primary(self) -> bool:
        return self.role == "primary"

    def _campaign(self) -> None:
        if not self.alive:
            return
        if self.locks.try_acquire(self.config.lock_name, self.name,
                                  self.config.lease):
            self._become_primary()
        else:
            self.role = "standby"
            self.locks.watch(self.config.lock_name, self._campaign)

    def _become_primary(self) -> None:
        self.role = "primary"
        self.failovers += 1
        # Detached: the span ends in _finish_recovery, a different callback.
        self._failover_span = self.tracer.start_span(
            "master.failover", detached=True,
            master=self.name, takeover=self.failovers)
        self.bus.set_alias(self.config.alias, self.name)
        # A fresh hub per term, its streams at an epoch above any earlier
        # term's: an agent may still hold this stream name's receiver at
        # the old term's position, and the post-recovery push no longer
        # resets it (DESIGN.md §12).
        self.hub = StreamHub(self, epoch=self.failovers)
        self.scheduler = FuxiScheduler(self.config.scheduler,
                                       tracer=self.tracer)
        self._last_agent_seen = make_time_column()
        self._last_app_seen = {}
        # Rebuild the AM-placement index from the surviving assignment map;
        # heap entries reappear as agents report in (_note_agent_alive).
        self._am_hosted = {}
        for hosted_on in self._app_master_machine.values():
            self._am_hosted[hosted_on] = self._am_hosted.get(hosted_on, 0) + 1
        self._am_heap = []
        self._pending_agent_reports = {}
        self._pending_allocations = {}
        self._pending_am_holdings = {}
        self._drift_suspects = {}
        self._load_hard_state()
        self.set_periodic_timer("renew", self.config.renew_interval, self._renew)
        self.set_periodic_timer("liveness", self.config.liveness_check_interval,
                                self._check_liveness)
        self.set_periodic_timer("retransmit", self.config.retransmit_interval,
                                self.hub.retransmit_pending)
        # Enter recovery: collect peer state before scheduling anything new.
        self.recovering = True
        self.set_timer("recovery", self.config.recovery_window,
                       self._finish_recovery)
        for app_id in self._known_app_ids():
            # Seed liveness tracking so an AM that died while we were not
            # primary still gets detected and restarted.
            self._last_app_seen[app_id] = self.loop.now
            self.send(f"app:{app_id}", msg.MasterHello(self.name, self.failovers))

    def _load_hard_state(self) -> None:
        """Hard states: quota groups, app configs, cluster blacklist (§4.3.1).

        The records are only read, so they are peeked, not deep-copied: an
        app record carries its whole job description."""
        for _, group in self.checkpoint.peek_items("quota/"):
            self.scheduler.quota.define_group(QuotaGroup(
                name=group["name"],
                min_quota=_vector_from(group.get("min", {})),
                max_quota=(_vector_from(group["max"]) if group.get("max") else None),
            ))
        for _, app in self.checkpoint.peek_items("app/"):
            self.scheduler.register_app(app["app_id"], app.get("group", DEFAULT_GROUP))
        snapshot = self.checkpoint.get("blacklist")
        if snapshot:
            self.blacklist = ClusterBlacklist.from_snapshot(
                snapshot, self.config.blacklist)

    def _known_app_ids(self) -> List[str]:
        return [app["app_id"]
                for _, app in self.checkpoint.peek_items("app/")]

    def _renew(self) -> None:
        if not self.locks.renew(self.config.lock_name, self.name,
                                self.config.lease):
            # Lost the lease (e.g. after a long stall): step down cleanly.
            self._abort_failover_span("lease_lost")
            self.role = "standby"
            self.cancel_all_timers()
            self._campaign()

    def on_crash(self) -> None:
        self._abort_failover_span("crash")
        self.role = "candidate"
        self.scheduler = None
        self.recovering = False

    def _abort_failover_span(self, reason: str) -> None:
        """Close a takeover span that never reached _finish_recovery."""
        if self._failover_span is not None and self.recovering:
            self.tracer.end_span(self._failover_span, aborted=reason)
        self._failover_span = None

    def on_restart(self) -> None:
        self._campaign()

    def _finish_recovery(self) -> None:
        """Recovery window over: install buffered reports, resume scheduling."""
        self.recovering = False
        reports = self._pending_agent_reports
        self._install_pending_allocations()
        decisions: List[Grant] = []
        if self.scheduler is not None:
            # Tell every AM the authoritative holdings: grants that were in
            # flight when the old master died reached agents but not their
            # AMs; the full sync hands them over (or triggers their return).
            for app_id in self._known_app_ids():
                self._send_grant_full(app_id)
            # Symmetrically, tell every agent whose books the rebuilt ledger
            # does not hold exactly the authoritative allocation books: an
            # agent may hold grants for an app that finished (or whose AM
            # died) during the failover window — no AM will ever return
            # those, so without this wholesale push the agent's hard-state
            # entry would leak forever.  An agent whose report the ledger
            # now holds exactly has nothing to repair.  (Every pool machine
            # has a report: nothing else adds one mid-recovery.)
            books_match = self.scheduler.ledger.books_match
            self._push_alloc_full([
                machine for machine in self.scheduler.pool.machines()
                if not books_match(machine, reports[machine].allocations)])
            decisions = self.scheduler.schedule_all_machines()
        if self._failover_span is not None:
            machines = (self.scheduler.pool.machine_count()
                        if self.scheduler is not None else 0)
            self.tracer.end_span(self._failover_span,
                                 machines=machines, grants=len(decisions))
            self._failover_span = None
        self._disseminate(decisions)

    # ------------------------------------------------------------------ #
    # message dispatch
    # ------------------------------------------------------------------ #

    def handle_message(self, sender: str, message) -> None:
        if not self.is_primary:
            return
        # Single dict lookup on the message type: the isinstance chain this
        # replaces averaged ~5 checks per message, and heartbeats (the bulk
        # of the traffic at 5k machines) sat near the bottom of it.
        handler = self._dispatch.get(type(message))
        if handler is not None:
            handler(sender, message)

    def _handle_envelope(self, sender: str, message: msg.Envelope) -> None:
        self.hub.on_envelope(sender, message.inner, self._receiver_factory)

    def _handle_ack(self, sender: str, message: msg.Ack) -> None:
        self.hub.on_ack(message)

    def _handle_app_heartbeat(self, sender: str,
                              message: msg.AppHeartbeat) -> None:
        self._last_app_seen[message.app_id] = self.loop.now

    def absorb_message(self, sender: str, message, arrival: float) -> bool:
        """Fold one arrival of a delivery run that changes nothing but a
        stamp (§3.4's "roll-up manner"): an application master's heartbeat
        only stamps its arrival in ``_last_app_seen`` — a standby ignores
        it.  Anything else is declined and delivered as a message."""
        if type(message) is not msg.AppHeartbeat:
            return False
        if self.is_primary:
            self._last_app_seen[message.app_id] = arrival
        return True

    def _handle_am_started(self, sender: str,
                           message: msg.AppMasterStarted) -> None:
        self._set_am_machine(message.app_id, message.machine)
        self._last_app_seen[message.app_id] = self.loop.now

    def _receiver_factory(self, peer: str, kind: str):
        if kind == "req" and peer.startswith("app:"):
            app_id = peer[len("app:"):]
            return self.hub.receiver_for(
                peer, kind,
                lambda payload: self._apply_app_payload(app_id, payload),
                lambda state: self._apply_app_full_state(app_id, state),
            )
        return None

    # ------------------------------------------------------------------ #
    # application request stream
    # ------------------------------------------------------------------ #

    def _apply_app_payload(self, app_id: str, payload) -> None:
        if self.scheduler is None:
            return
        started = _time.perf_counter()
        decisions: List[Grant] = []
        if isinstance(payload, msg.DefineUnit):
            self._ensure_app(app_id)
            self.scheduler.define_unit(payload.unit)
        elif isinstance(payload, msg.DemandDelta):
            self._ensure_app(app_id)
            if payload.delta.unit_key not in self.scheduler.units:
                return  # unit definition lost; full sync will restore it
            if not self.recovering:
                decisions = self.scheduler.apply_request_delta(payload.delta)
        elif isinstance(payload, msg.ReturnResource):
            agent_only: List[Grant] = []
            try:
                decisions = self.scheduler.return_resource(
                    payload.unit_key, payload.machine, payload.count)
                # The agent must learn the allocation shrank; the returning
                # AM already debited its own books when it sent the return.
                agent_only.append(Grant(payload.unit_key, payload.machine,
                                        -payload.count))
            except (KeyError, ValueError):
                decisions = []  # already revoked (e.g. node removed)
            elapsed_ms = (_time.perf_counter() - started) * 1000.0
            self.metrics.record("fm.schedule_ms", self.loop.now, elapsed_ms)
            self.metrics.increment("fm.requests")
            self._disseminate(decisions, agent_only=agent_only)
            return
        else:
            return
        elapsed_ms = (_time.perf_counter() - started) * 1000.0
        self.metrics.record("fm.schedule_ms", self.loop.now, elapsed_ms)
        self.metrics.increment("fm.requests")
        self._disseminate(decisions)

    def _ensure_app(self, app_id: str) -> None:
        if app_id not in self.scheduler.quota._app_group:
            group = DEFAULT_GROUP
            # peek: only the group name is read, so skip the deepcopy of
            # the whole description the checkpoint would otherwise pay.
            record = self.checkpoint.peek(f"app/{app_id}")
            if record:
                group = record.get("group", DEFAULT_GROUP)
            self.scheduler.register_app(app_id, group)

    def _apply_app_full_state(self, app_id: str, state: msg.AppFullState) -> None:
        """Reconcile an AM's full state (failover rebuild or periodic safety)."""
        if self.scheduler is None:
            return
        self._ensure_app(app_id)
        self._last_app_seen[app_id] = self.loop.now
        for unit in state.units:
            self.scheduler.define_unit(unit)
        # Demands: the AM is the authority on what it wants.
        decisions: List[Grant] = []
        for unit_key in sorted(state.demands):
            demand = WaitingDemand.from_snapshot(state.demands[unit_key])
            decisions.extend(self.scheduler.reinstall_demand(
                unit_key, demand, place=not self.recovering))
        if self.recovering:
            self.tracer.event("master.app_report",
                              parent=self._failover_span, app=app_id)
            # Agents are authoritative for per-machine allocation; AM
            # holdings only fill in for machines whose agent never reports
            # (see _install_pending_allocations).
            for unit_key, machines in state.holdings.items():
                for machine, count in machines.items():
                    pending = self._pending_am_holdings.setdefault(machine, {})
                    pending[unit_key] = max(pending.get(unit_key, 0),
                                            int(count))
            self._retry_pending_allocations()
        elif state.recovering:
            # The AM restarted and lost its books: send them back wholesale.
            self._send_grant_full(app_id)
        elif dict(state.holdings) != self._grant_state(app_id):
            # Periodic safety sync (§3.1): views drifted — master's books
            # are authoritative, push them wholesale.
            self._send_grant_full(app_id)
        self._disseminate(decisions)

    def _handle_app_exit(self, app_id: str) -> None:
        if self.scheduler is None:
            return
        started = _time.perf_counter()
        decisions = self.scheduler.unregister_app(app_id)
        self.metrics.record("fm.schedule_ms", self.loop.now,
                            (_time.perf_counter() - started) * 1000.0)
        # Agents must still see the exiting app's revocations to clear their
        # books; the exited AM itself ignores its grant stream from here on.
        self._disseminate(decisions)
        self.checkpoint.delete(f"app/{app_id}")
        self.blacklist.clear_job(app_id)
        self._last_app_seen.pop(app_id, None)
        self._set_am_machine(app_id, None)
        self.hub.drop_peer(f"app:{app_id}")

    # ------------------------------------------------------------------ #
    # agents: heartbeats, liveness, failover reports
    # ------------------------------------------------------------------ #

    def _note_agent_alive(self, machine: str) -> Optional[float]:
        """Stamp ``machine``'s agent alive; returns its previous stamp."""
        previous = self._last_agent_seen.get(machine)
        if previous is None:
            # New (or returning) live agent: make it visible to AM placement
            # at its current load.
            heapq.heappush(self._am_heap,
                           (self._am_hosted.get(machine, 0), machine))
        self._last_agent_seen.set(machine, self.loop.now)
        return previous

    def _handle_agent_heartbeat(self, sender: str, beat: msg.AgentHeartbeat) -> None:
        if self.scheduler is None:
            return
        self.metrics.increment("fm.heartbeat_bytes", beat.payload_bytes())
        if (self.recovering and beat.book_version == 0
                and not self.scheduler.pool.has_machine(beat.machine)):
            # Version 0 proves the books empty (every change to them bumps
            # it, a crash too, and it never resets): the beat is the
            # agent's whole report (DESIGN.md §12).
            self._register_first_beats(
                [beat.machine], [beat.rack], [beat.capacity],
                [beat.health_sample], [self.loop.now])
            self._last_agent_seen.set(beat.machine, self.loop.now)
            return
        previous = self._note_agent_alive(beat.machine)
        self.health.record_sample(beat.machine, beat.health_sample,
                                  self.loop.now)
        if not self.scheduler.pool.has_machine(beat.machine):
            if self.recovering:
                # Ask for the full allocation picture before re-adding.
                self.send(sender, msg.ResyncRequest(self.name, self.failovers))
                return
            decisions = self.scheduler.add_machine(beat.machine, beat.rack,
                                                   beat.capacity)
            self.blacklist.set_known_machines(self.scheduler.pool.machine_count())
            if self.blacklist.is_disabled(beat.machine):
                self.scheduler.disable_machine(beat.machine)
            # The agent may have outlived its removal (e.g. its heartbeats
            # were lost in a partition while revocations for its apps were
            # skipped as undeliverable): push the authoritative — empty —
            # allocation books wholesale so stale entries can't leak.  At
            # version 0 the agent's books are empty already.
            if beat.book_version:
                self._send_alloc_full(beat.machine)
            self._disseminate(decisions)
        elif beat.capacity != self.scheduler.pool.capacity(beat.machine):
            # "The total virtual resource on each node can be changed at any
            # time" (§3.2.1): refresh capacity, keeping allocations; growth
            # may immediately serve the machine's waiting queues.
            decisions = self.scheduler.add_machine(beat.machine, beat.rack,
                                                   beat.capacity)
            self._disseminate(decisions)
        elif (not self.recovering
              and beat.book_digest
              != self.scheduler.ledger.machine_digest(beat.machine)
              and not self.hub.in_flight(f"agent:{beat.machine}", "alloc")):
            # Periodic safety sync (§3.1), agent side, in O(1): the beat
            # carries a digest of the agent's books instead of a book copy;
            # a mismatch means the views drifted — e.g. a fire-and-forget
            # full sync was lost in a partition, or revocations were
            # undeliverable while the machine was out of the pool.  The
            # master's view is authoritative; push it wholesale.  (Skipped
            # mid-recovery: the rebuilding master's books are incomplete
            # and must not wipe agent hard state.  Skipped while a delta or
            # full sync to the agent awaits its ack: the beat may predate
            # it.)  The agent's previous beat must have shown it too: a
            # beat sent just before a delta landed can arrive after that
            # delta's ack, and the next beat then matches.
            suspected_at = self._drift_suspects.pop(beat.machine, None)
            if suspected_at is None or suspected_at != previous:
                self._drift_suspects[beat.machine] = self.loop.now
            else:
                self.metrics.increment("fm.digest_drift")
                if self.tracer.enabled:
                    self.tracer.event("master.book_drift",
                                      machine=beat.machine,
                                      version=beat.book_version)
                self._send_alloc_full(beat.machine)
        if (not self.recovering
                and self.scheduler.policy.heartbeat_paced
                and self.scheduler.pool.has_machine(beat.machine)):
            # Heartbeat-paced policies (YARN/Mesos baselines) allocate only
            # when a node reports in, modelling the NodeManager-heartbeat /
            # resource-offer cycle.  The Fuxi path pays one flag check.
            started = _time.perf_counter()
            decisions = self.scheduler.machine_event(beat.machine)
            self.metrics.record("fm.schedule_ms", self.loop.now,
                                (_time.perf_counter() - started) * 1000.0)
            self._disseminate(decisions)
        # Bad-node detection is deliberately NOT done per heartbeat: §3.4
        # classifies it as heavy-but-not-urgent work handled "at a fixed
        # time interval ... in a roll-up manner" — see _check_liveness.

    def absorb_heartbeats(self, beats, order: Sequence[int],
                          times: Sequence[float],
                          start: int, end: int) -> int:
        """Roll up the beats that change nothing (§3.4's "roll-up manner").

        ``order[start:end]`` are positions into the columns of ``beats``
        (a :class:`~repro.core.heartbeat.HeartbeatBatch`), in arrival
        order, with no other event between them; ``times`` are their
        arrival times.  A beat is taken exactly when
        :meth:`_handle_agent_heartbeat` would do nothing for it but stamp
        its arrival and count its bytes, or — mid-recovery — register its
        machine from a first beat at version 0; DESIGN.md's heartbeat-plane
        table lists the statement behind each test below.  The chunk's
        first beats are registered together, in arrival order, when the
        chunk ends.  Returns the index of the first beat that fails a
        test: that one takes the per-message path (``deliver`` ->
        ``handle_message``), alone.
        """
        scheduler = self.scheduler
        if (self.role != "primary" or scheduler is None
                or scheduler.policy.heartbeat_paced):
            return start
        recovering = self.recovering
        seen = self._last_agent_seen
        known = seen.keys()
        folded = self.health.folded.get
        pool_capacity = scheduler.pool.capacities().get
        # mid-recovery the books are not compared (see the per-message path)
        ledger_digest = (None if recovering
                         else scheduler.ledger.machine_digests().get)
        machines, payload_bytes = beats.machines, beats.payload_bytes
        samples, capacities, digests = (beats.samples, beats.capacities,
                                        beats.digests)
        versions = beats.versions
        # chunk indices of the first beats taken, and their machines
        first: List[int] = []
        fresh: set = set()
        stop = start
        payload = 0
        # indexed, not sliced: a run of first beats offers every one here
        while stop < end:
            position = order[stop]
            machine = machines[position]
            capacity = pool_capacity(machine)
            if machine not in known:
                if (not recovering or versions[position]
                        or capacity is not None or machine in fresh):
                    break
                first.append(stop)
                fresh.add(machine)
            elif (folded(machine) is not samples[position]
                    or (capacity is not capacities[position]
                        and (capacity is None
                             or capacity != capacities[position]))
                    or (ledger_digest is not None
                        and ledger_digest(machine, 0) != digests[position])):
                break
            payload += payload_bytes[position]
            stop += 1
        if stop > start:
            if first:
                positions = [order[index] for index in first]
                self._register_first_beats(
                    [machines[position] for position in positions],
                    [beats.racks[position] for position in positions],
                    [capacities[position] for position in positions],
                    [samples[position] for position in positions],
                    [times[index] for index in first])
            # new machines are appended in arrival order
            seen.set_many([machines[position]
                           for position in order[start:stop]],
                          times[start:stop])
            self.metrics.increment("fm.heartbeat_bytes", payload)
        return stop

    def _register_first_beats(self, machines: List[str], racks: List[str],
                              capacities: list, samples: list,
                              times: List[float]) -> None:
        """Register machines from first beats at version 0 mid-recovery, in
        arrival order: each beat is its agent's whole report, with empty
        books (DESIGN.md §12).  The one registration path from a beat:
        the roll-up passes a chunk's first beats, the per-message handler
        one.

        Column by column: make each new agent visible to AM placement,
        fold its health sample at its arrival, buffer its report (it
        counts as reported: the AM-holdings fallback skips it), and put
        the machines in the pool unscheduled.  The caller stamps the
        agents alive afterwards.
        """
        seen = self._last_agent_seen
        hosted = self._am_hosted
        for machine in machines:
            if machine not in seen:
                heapq.heappush(self._am_heap,
                               (hosted.get(machine, 0), machine))
        record_sample = self.health.record_sample
        for machine, sample, arrival in zip(machines, samples, times):
            record_sample(machine, sample, arrival)
        if self.tracer.enabled:
            for machine, arrival in zip(machines, times):
                self.tracer.event_at(arrival, "master.agent_report",
                                     parent=self._failover_span,
                                     machine=machine)
        reports = self._pending_agent_reports
        for machine, rack, capacity in zip(machines, racks, capacities):
            reports[machine] = msg.AgentFullState(machine, rack, capacity, {})
        self._add_machines(machines, racks, capacities)

    def _handle_agent_resync_request(self, sender: str,
                                     request: msg.ResyncRequest) -> None:
        """A restarted agent asks for its allocation books."""
        if not sender.startswith("agent:") or self.scheduler is None:
            return
        machine = sender[len("agent:"):]
        self._send_alloc_full(machine)

    def _handle_agent_full_state(self, report: msg.AgentFullState) -> None:
        if self.scheduler is None:
            return
        self._note_agent_alive(report.machine)
        if self.recovering:
            self._buffer_agent_report(report)
        else:
            if not self.scheduler.pool.has_machine(report.machine):
                decisions = self.scheduler.add_machine(
                    report.machine, report.rack, report.capacity)
                self._disseminate(decisions)

    def _buffer_agent_report(self, report: msg.AgentFullState) -> None:
        """Take one agent's report in the recovery window and install it."""
        self.tracer.event("master.agent_report", parent=self._failover_span,
                          machine=report.machine)
        self._pending_agent_reports[report.machine] = report
        if report.allocations:
            pending = self._pending_allocations.setdefault(report.machine, {})
            for unit_key, count in report.allocations.items():
                pending[unit_key] = int(count)
        # Targeted install: re-scanning *every* buffered report per
        # arriving report is quadratic across a 5k-machine recovery;
        # entries whose units are still missing are swept up by
        # _install_pending_allocations when the window closes.
        self._install_machine_report(report.machine)

    def _install_machine_report(self, machine: str) -> None:
        """Install one machine's buffered report (single-machine form of
        :meth:`_retry_pending_allocations`)."""
        report = self._pending_agent_reports[machine]
        if not self.scheduler.pool.has_machine(machine):
            self._add_machines([machine], [report.rack], [report.capacity])
        entries = self._pending_allocations.get(machine)
        if not entries:
            return
        for unit_key in list(entries):
            if unit_key in self.scheduler.units:
                self.scheduler.restore_allocation(unit_key, machine,
                                                  entries.pop(unit_key))
        if not entries:
            del self._pending_allocations[machine]

    def _add_machines(self, machines: List[str], racks: List[str],
                      capacities: list) -> None:
        """Put reported machines in the pool, in order, unscheduled (their
        space may belong to allocations about to be restored), and keep
        the blacklist's disables."""
        scheduler = self.scheduler
        scheduler.add_machines(machines, racks, capacities)
        self.blacklist.set_known_machines(scheduler.pool.machine_count())
        is_disabled = self.blacklist.is_disabled
        for machine in machines:
            if is_disabled(machine):
                scheduler.disable_machine(machine)

    def _retry_pending_allocations(self) -> None:
        """Install buffered (machine, unit, count) entries whose pieces arrived."""
        has_machine = self.scheduler.pool.has_machine
        missing = [report for machine, report
                   in self._pending_agent_reports.items()
                   if not has_machine(machine)]
        if missing:
            self._add_machines([report.machine for report in missing],
                               [report.rack for report in missing],
                               [report.capacity for report in missing])
        for machine, entries in list(self._pending_allocations.items()):
            if not self.scheduler.pool.has_machine(machine):
                continue
            for unit_key in list(entries):
                if unit_key in self.scheduler.units:
                    self.scheduler.restore_allocation(unit_key, machine,
                                                      entries.pop(unit_key))
            if not entries:
                del self._pending_allocations[machine]

    def _install_pending_allocations(self) -> None:
        self._retry_pending_allocations()
        # AM-holdings fallback: only machines no agent reported on (the
        # agent may itself be mid-failover) and that the scheduler knows.
        for machine, entries in self._pending_am_holdings.items():
            if machine in self._pending_agent_reports:
                continue
            if not self.scheduler.pool.has_machine(machine):
                continue
            for unit_key, count in entries.items():
                if unit_key in self.scheduler.units:
                    self.scheduler.restore_allocation(unit_key, machine,
                                                      count)
        self._pending_agent_reports = {}
        self._pending_allocations = {}
        self._pending_am_holdings = {}

    def _check_liveness(self) -> None:
        """Periodic roll-up of the heavy non-urgent work (§3.4): heartbeat
        timeouts, health-based bad-node detection, AM supervision.  Urgent
        work (grants, returns, revocations) stays event-triggered."""
        if self.scheduler is None:
            return
        now = self.loop.now
        # Health-based bad-node detection, rolled up.
        for machine in sorted(self.health.unavailable_machines(now)):
            if not self.scheduler.pool.has_machine(machine):
                continue
            if self.blacklist.disable_low_health(machine):
                self.scheduler.disable_machine(machine)
                self._checkpoint_blacklist()
                self.metrics.increment("fm.health_disables")
                self.tracer.event("master.machine_disabled",
                                  machine=machine, reason="low_health")
        # Machines with dead heartbeats: remove + revoke (paper §4.3.2).
        # The stale set is one columnar ``now - seen > timeout`` pass, in
        # the same insertion order the dict scan used to walk.
        for machine in self._last_agent_seen.stale(
                now, self.config.heartbeat_timeout):
            self._last_agent_seen.pop(machine)
            if self.scheduler.pool.has_machine(machine):
                self.tracer.event("master.machine_removed", machine=machine,
                                  reason="heartbeat_timeout")
                revocations = self.scheduler.remove_machine(machine)
                self.metrics.increment("fm.heartbeat_timeouts")
                self._disseminate(revocations)
                self.hub.drop_peer(f"agent:{machine}")
        # Silent application masters: restart them on a fresh agent.
        for app_id, seen in list(self._last_app_seen.items()):
            if now - seen <= self.config.app_master_timeout:
                continue
            record = self.checkpoint.get(f"app/{app_id}")
            if record is None:
                del self._last_app_seen[app_id]
                continue
            self._last_app_seen[app_id] = now  # rate-limit restart attempts
            self.tracer.event("master.am_restart", app=app_id)
            self._launch_app_master(app_id, record.get("description", {}),
                                    avoid=self._app_master_machine.get(app_id))
            self.metrics.increment("fm.am_restarts")

    # ------------------------------------------------------------------ #
    # job submission / AM supervision
    # ------------------------------------------------------------------ #

    def submit_job(self, app_id: str, description: dict,
                   group: str = DEFAULT_GROUP) -> None:
        """Client entry point: checkpoint the description, launch the AM."""
        self.checkpoint.put(f"app/{app_id}", {
            "app_id": app_id, "group": group, "description": description,
        })
        self.tracer.event("master.checkpoint", key=f"app/{app_id}")
        if self.scheduler is not None:
            self._ensure_app(app_id)
        self._last_app_seen[app_id] = self.loop.now
        self._launch_app_master(app_id, description)

    def define_quota_group(self, name: str, min_quota=None, max_quota=None) -> None:
        """Configure a quota group (hard state)."""
        self.checkpoint.put(f"quota/{name}", {
            "name": name,
            "min": min_quota.as_dict() if min_quota is not None else {},
            "max": max_quota.as_dict() if max_quota is not None else None,
        })
        self.tracer.event("master.checkpoint", key=f"quota/{name}")
        if self.scheduler is not None:
            self.scheduler.quota.define_group(QuotaGroup(
                name=name,
                min_quota=min_quota or _vector_from({}),
                max_quota=max_quota,
            ))

    def _launch_app_master(self, app_id: str, description: dict,
                           avoid: Optional[str] = None) -> None:
        machine = self._pick_am_machine(avoid)
        if machine is None:
            return  # no live agent yet; liveness check will retry
        self._set_am_machine(app_id, machine)
        self.send(f"agent:{machine}", msg.LaunchAppMaster(app_id, description))

    def _set_am_machine(self, app_id: str, machine: Optional[str]) -> None:
        """Record where ``app_id``'s AM runs, keeping the placement heap hot.

        Every load transition pushes a fresh (load, machine) entry; older
        entries for the machine are invalidated by the load change itself
        and discarded lazily when _pick_am_machine peeks them.
        """
        old = self._app_master_machine.get(app_id)
        if old == machine:
            return
        if old is not None:
            load = self._am_hosted.get(old, 0) - 1
            if load <= 0:
                self._am_hosted.pop(old, None)
                load = 0
            else:
                self._am_hosted[old] = load
            heapq.heappush(self._am_heap, (load, old))
        if machine is None:
            self._app_master_machine.pop(app_id, None)
            return
        self._app_master_machine[app_id] = machine
        load = self._am_hosted.get(machine, 0) + 1
        self._am_hosted[machine] = load
        heapq.heappush(self._am_heap, (load, machine))

    def _pick_am_machine(self, avoid: Optional[str] = None) -> Optional[str]:
        """Least-loaded live agent (ties by name), skipping bad machines.

        Lazy min-heap over (load, machine): a popped entry is live iff the
        machine still heartbeats and its recorded load is current — stale
        entries are discarded on contact.  This replaces a full scan of
        every live agent per AM launch, which at 5k machines dominated the
        submission path.  Heap order (load, name) reproduces the old scan's
        tie-break exactly.
        """
        heap = self._am_heap
        hosted = self._am_hosted
        seen = self._last_agent_seen
        is_disabled = self.blacklist.is_disabled
        set_aside: List[Tuple[int, str]] = []
        best: Optional[str] = None
        while heap:
            load, machine = heap[0]
            if machine not in seen or hosted.get(machine, 0) != load:
                heapq.heappop(heap)  # stale: load moved on or machine died
                continue
            if machine == avoid or is_disabled(machine):
                set_aside.append(heapq.heappop(heap))
                continue
            best = machine
            break
        for entry in set_aside:
            heapq.heappush(heap, entry)
        return best

    # ------------------------------------------------------------------ #
    # blacklist
    # ------------------------------------------------------------------ #

    def _handle_blacklist_report(self, report: msg.BlacklistReport) -> None:
        if self.scheduler is None:
            return
        if self.blacklist.mark_by_job(report.machine, report.job_id):
            self.tracer.event("master.machine_disabled",
                              machine=report.machine, reason="blacklist")
            self.scheduler.disable_machine(report.machine)
            self._checkpoint_blacklist()
            self.metrics.increment("fm.blacklist_disables")

    def _checkpoint_blacklist(self) -> None:
        self.checkpoint.put("blacklist", self.blacklist.snapshot())
        self.tracer.event("master.checkpoint", key="blacklist")

    # ------------------------------------------------------------------ #
    # dissemination
    # ------------------------------------------------------------------ #

    def _disseminate(self, decisions: List[Grant],
                     agent_only: Optional[List[Grant]] = None) -> None:
        """Send decisions to the affected AMs and agents.

        ``agent_only`` entries update agents' allocation books without being
        echoed to the application (used for returns the AM itself initiated).
        """
        if not decisions and not agent_only:
            return
        digest = self.grant_stream_digest
        now = self.loop.now
        for grant in decisions:
            chunk = (f"{now!r}|{grant.unit_key.app_id}|"
                     f"{grant.unit_key.slot_id}|{grant.machine}|"
                     f"{grant.count}").encode("utf-8")
            for byte in chunk:
                digest = (digest ^ byte) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
            self.grants_disseminated += 1
        self.grant_stream_digest = digest
        by_app: Dict[str, List[Grant]] = {}
        by_machine: Dict[str, List[Grant]] = {}
        for grant in decisions:
            by_app.setdefault(grant.unit_key.app_id, []).append(grant)
            by_machine.setdefault(grant.machine, []).append(grant)
        for grant in agent_only or ():
            by_machine.setdefault(grant.machine, []).append(grant)
        for app_id, grants in sorted(by_app.items()):
            dest = f"app:{app_id}"
            self.hub.sender(dest, "grant",
                            full_state=lambda a=app_id: self._grant_state(a))
            self.hub.send_delta(dest, "grant", msg.GrantBatch(tuple(grants)),
                                items=len(grants))
        for machine, grants in sorted(by_machine.items()):
            if not self.scheduler.pool.has_machine(machine):
                continue
            dest = f"agent:{machine}"
            self.hub.sender(dest, "alloc",
                            full_state=lambda m=machine: self._alloc_state(m))
            self.hub.send_delta(dest, "alloc",
                                msg.AllocationUpdate(tuple(grants)),
                                items=len(grants))
        grants = sum(1 for g in decisions if g.count > 0)
        revocations = sum(1 for g in decisions if g.count < 0)
        self.metrics.increment("fm.grants", grants)
        self.metrics.increment("fm.revocations", revocations)
        if self.tracer.enabled:
            self.tracer.event("master.disseminate", grants=grants,
                              revocations=revocations,
                              apps=len(by_app), machines=len(by_machine))

    # ------------------------------------------------------------------ #
    # invariant probes (read-only; used by repro.chaos)
    # ------------------------------------------------------------------ #

    def alloc_view(self, machine: str) -> Dict[UnitKey, int]:
        """The master's soft-state allocation books for one machine."""
        return self._alloc_state(machine)

    def telemetry_probe(self) -> Dict[str, float]:
        """Deterministic heartbeat/blacklist roll-up for the live sampler.

        Heartbeat staleness is measured in *simulated* seconds since each
        live agent's last beat — a leading indicator for the timeout-driven
        machine removal of §4.3.2 — so the values are reproducible for a
        fixed seed (message jitter is seeded).
        """
        now = self.loop.now
        seen = self._last_agent_seen
        stale_max = stale_sum = 0.0
        for last in seen.values():
            age = now - last
            stale_sum += age
            if age > stale_max:
                stale_max = age
        count = len(seen)
        return {
            "agents_seen": float(count),
            "hb_stale_max": round(stale_max, 6),
            "hb_stale_mean": round(stale_sum / count, 6) if count else 0.0,
            "blacklisted": float(len(self.blacklist.disabled_machines())),
        }

    def _grant_state(self, app_id: str) -> Dict[UnitKey, Dict[str, int]]:
        state: Dict[UnitKey, Dict[str, int]] = {}
        if self.scheduler is None:
            return state
        for unit_key, machine, count in self.scheduler.ledger.entries_for_app(app_id):
            state.setdefault(unit_key, {})[machine] = count
        return state

    def _alloc_state(self, machine: str) -> Dict[UnitKey, int]:
        state: Dict[UnitKey, int] = {}
        if self.scheduler is None:
            return state
        for unit_key, count in self.scheduler.ledger.entries_for_machine(machine):
            state[unit_key] = count
        return state

    def _send_grant_full(self, app_id: str) -> None:
        dest = f"app:{app_id}"
        self.hub.sender(dest, "grant",
                        full_state=lambda a=app_id: self._grant_state(a))
        state = self._grant_state(app_id)
        self.hub.send_full(dest, "grant", state, items=len(state))

    def _send_alloc_full(self, machine: str) -> None:
        self.send(f"agent:{machine}", self._alloc_full(machine))

    def _alloc_full(self, machine: str) -> msg.Envelope:
        """The full allocation sync for ``machine``'s agent, with the
        stream's sender (and its full-state source) in place."""
        dest = f"agent:{machine}"
        self.hub.sender(dest, "alloc",
                        full_state=lambda m=machine: self._alloc_state(m))
        state = self._alloc_state(machine)
        return self.hub.full_envelope(dest, "alloc", state, items=len(state))

    def _push_alloc_full(self, machines: List[str]) -> None:
        """:meth:`_send_alloc_full` for each of ``machines`` in order, as
        one fan-out run: same stream state, counters, draws and sequence
        numbers, one series for the deliveries (DESIGN.md §12).  A
        transport that duplicates or reorders sends them one by one."""
        if not machines:
            return
        config = self.bus.config
        if config.duplicate_prob or config.reorder_prob:
            for machine in machines:
                self._send_alloc_full(machine)
            return
        envelopes = [self._alloc_full(machine) for machine in machines]
        # the agents' own (interned) names: the run holds these to its end;
        # every message takes the next slot of this master's one stream
        self.bus.send_run(
            self.bus.edge_group(self.name, [intern(f"agent:{machine}")
                                            for machine in machines]),
            Messages(envelopes))


def _vector_from(dims: Dict[str, float]):
    from repro.core.resources import ResourceVector
    return ResourceVector(dims)
