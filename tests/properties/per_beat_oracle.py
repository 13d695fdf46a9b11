"""The heartbeat plane and the recovery push as they were before they were
batched: the oracles ``test_heartbeat_differential.py`` drives the
batched paths against.

- :class:`PerBeatAgent` overrides ``FuxiAgent._start_timers`` and
  ``_send_heartbeat`` with the bodies those methods had at the commit
  before the cohort, kept verbatim: every agent arms its own
  ``"heartbeat"`` periodic timer, and every beat is a fresh
  ``AgentHeartbeat`` through ``Actor.send`` — so it reaches the master
  through ``_handle_agent_heartbeat``, never through the roll-up.  (One
  adaptation: the old ``health_sample()`` built a new dict per call, so the
  copy takes ``dict(...)`` of today's cached one — the oracle's beats carry
  a fresh sample object, as they did.)
- :class:`FirstBeatAgent` overrides only ``_start_timers``, with its body
  at the commit before first-beat runs: the periodic beat is the cohort's,
  the immediate beat a ``call_after(0.0, _send_heartbeat)`` of its own.
- :class:`PerMachinePushMaster` overrides ``FuxiMaster._finish_recovery``
  and ``_send_alloc_full`` with their bodies at that commit: the recovery
  window ends in one ``hub.send_full`` per pushed machine, each a message
  of its own.  The one adaptation is the push rule of the protocol both
  sides now run (DESIGN.md §12): a machine whose report the rebuilt
  ledger holds exactly is not pushed.
- It also overrides ``_handle_agent_heartbeat``, ``absorb_heartbeats``,
  ``_install_machine_report`` and ``_retry_pending_allocations`` with
  their bodies at the commit before columnar registration: a version-0
  first beat is declined by the roll-up and registers its machine through
  the handler, as an ``AgentFullState`` of its own, with one
  ``FuxiScheduler.add_machine`` and one ``set_known_machines`` per
  machine.  The one adaptation: the time column's ``set_present`` is
  called ``set_many`` now.  Its health monitor is a
  :class:`PerSampleHealthMonitor`, whose ``record_sample`` scores and
  copies every machine's sample itself, as before the shared memo.

Slow and obviously per-message.  Do not "tidy" the copied bodies; their
value is that they are the old code.

:func:`drive` is the closed-loop driver both sides of the differential run
under; it mirrors ``repro.api.simulate`` slice for slice but takes a
``NetworkConfig``, which ``RunSpec`` has no field for.
"""

from __future__ import annotations

import contextlib
import time as _time
from typing import (Callable, ContextManager, Dict, Iterator, List,
                    Mapping, Optional)

import repro._runtime as runtime
from repro.api import ClusterBuilder, RunResult, RunSpec
from repro.cluster.faults import FaultPlan
from repro.cluster.network import NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig
from repro.core.grant import Grant
from repro.core.health import HealthMonitor, _MachineHealth
from repro.core.heartbeat import HeartbeatCohort
from repro.core.master import FuxiMaster
from repro.jobs.dag import critical_path_length
from repro.workloads.synthetic import (SyntheticWorkload,
                                       SyntheticWorkloadConfig,
                                       ensure_input_files)


class PerBeatAgent(FuxiAgent):
    """FuxiAgent with the pre-cohort per-agent heartbeat timer."""

    def _start_timers(self) -> None:
        self.set_periodic_timer("heartbeat", self.config.heartbeat_interval,
                                self._send_heartbeat)
        if self.hub.has_senders():
            self._arm_retransmit()
        self.loop.call_after(0.0, self._send_heartbeat)

    def _send_heartbeat(self) -> None:
        if not self.alive:
            return
        # Fresh object per beat: a heartbeat is in flight for a network
        # delay, so it must be a value snapshot taken at send time.
        self.send(self.config.master_address, msg.AgentHeartbeat(
            machine=self.machine, rack=self.rack,
            capacity=self.capacity,  # "can be changed at any time" (§3.2.1)
            health_sample=dict(self.machine_state.health_sample()),
            book_version=self._book_version,
            book_digest=self._book_digest))


class FirstBeatAgent(FuxiAgent):
    """FuxiAgent whose immediate beat is an event of its own."""

    def _start_timers(self) -> None:
        # Beat every heartbeat_interval from now on, together with every
        # agent started in this instant (first firing one interval out) ...
        self._cohort = HeartbeatCohort.join(self)
        if self.hub.has_senders():
            self._arm_retransmit()
        # ... and once right away, as a message of its own: the first beat
        # is the one that registers the machine with the master.
        self.loop.call_after(0.0, self._send_heartbeat)


class PerSampleHealthMonitor(HealthMonitor):
    """HealthMonitor that scores and copies each machine's sample itself."""

    def record_sample(self, machine: str, sample: Mapping[str, float],
                      now: float) -> float:
        """Fold one raw sample in; returns the combined score."""
        self.folded[machine] = sample
        state = self._machines.get(machine)
        if state is None:
            state = self._machines[machine] = _MachineHealth()
        elif state.last_sample == sample:
            # Identical raw sample to the last beat — the overwhelmingly
            # common case for a healthy machine.  Plugins are pure functions
            # of the sample, and below_since was already settled for this
            # score last time, so the whole fold can be skipped.
            return state.score
        weighted = 0.0
        for p in self.plugins:
            value = p.evaluate(sample)
            if value < 0.0:
                value = 0.0
            elif value > 1.0:
                value = 1.0
            weighted += p.weight * value
        score = weighted / self._total_weight
        state.last_sample = dict(sample)
        state.score = score
        if score < self.threshold:
            if machine not in self._below_since:
                self._below_since.set(machine, now)
        else:
            self._below_since.pop(machine)
        return score



class PerMachinePushMaster(FuxiMaster):
    """FuxiMaster that registers machines one beat at a time and pushes
    the post-recovery books machine by machine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.health = PerSampleHealthMonitor(
            threshold=self.config.health_threshold,
            grace_seconds=self.config.health_grace)

    def _handle_agent_heartbeat(self, sender: str, beat: msg.AgentHeartbeat) -> None:
        if self.scheduler is None:
            return
        previous = self._note_agent_alive(beat.machine)
        self.metrics.increment("fm.heartbeat_bytes", beat.payload_bytes())
        self.health.record_sample(beat.machine, beat.health_sample,
                                  self.loop.now)
        if not self.scheduler.pool.has_machine(beat.machine):
            if self.recovering:
                if beat.book_version == 0:
                    # Version 0 proves the books empty (every change to
                    # them bumps it, a crash too, and it never resets): the
                    # beat is the agent's whole report (DESIGN.md §12).
                    self._buffer_agent_report(msg.AgentFullState(
                        beat.machine, beat.rack, beat.capacity, {}))
                    return
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

    def absorb_heartbeats(self, beats, order: List[int], times: List[float],
                          start: int, end: int) -> int:
        """Roll up the beats that change nothing (§3.4's "roll-up manner").

        ``order[start:end]`` are positions into the columns of ``beats``
        (a :class:`~repro.core.heartbeat.HeartbeatBatch`), in arrival
        order, with no other event between them; ``times`` are their
        arrival times.  A beat is folded exactly when
        :meth:`_handle_agent_heartbeat` would do nothing for it but stamp
        its arrival and count its bytes — DESIGN.md's heartbeat-plane table
        lists the statement behind each test below.  Returns the index of
        the first beat that fails a test: that one takes the per-message
        path (``deliver`` -> ``handle_message``), alone.
        """
        scheduler = self.scheduler
        if (self.role != "primary" or scheduler is None
                or scheduler.policy.heartbeat_paced):
            return start
        seen = self._last_agent_seen
        known = seen.keys()
        folded = self.health.folded.get
        pool_capacity = scheduler.pool.capacities().get
        # mid-recovery the books are not compared (see the per-message path)
        ledger_digest = (None if self.recovering
                         else scheduler.ledger.machine_digests().get)
        machines, payload_bytes = beats.machines, beats.payload_bytes
        samples, capacities, digests = (beats.samples, beats.capacities,
                                        beats.digests)
        stop = start
        payload = 0
        # indexed, not sliced: a run of beats the handler must see (first
        # beats register their machines) offers every one of them here
        while stop < end:
            position = order[stop]
            machine = machines[position]
            capacity = pool_capacity(machine)
            if (folded(machine) is not samples[position]
                    or machine not in known
                    or (capacity is not capacities[position]
                        and (capacity is None
                             or capacity != capacities[position]))
                    or (ledger_digest is not None
                        and ledger_digest(machine, 0) != digests[position])):
                break
            payload += payload_bytes[position]
            stop += 1
        if stop > start:
            seen.set_many([machines[position]
                           for position in order[start:stop]],
                          times[start:stop])
            self.metrics.increment("fm.heartbeat_bytes", payload)
        return stop

    def _install_machine_report(self, machine: str) -> None:
        """Install one machine's buffered report (single-machine form of
        :meth:`_retry_pending_allocations`)."""
        report = self._pending_agent_reports[machine]
        if not self.scheduler.pool.has_machine(machine):
            self.scheduler.add_machine(machine, report.rack,
                                       report.capacity, schedule=False)
            self.blacklist.set_known_machines(
                self.scheduler.pool.machine_count())
            if self.blacklist.is_disabled(machine):
                self.scheduler.disable_machine(machine)
        entries = self._pending_allocations.get(machine)
        if not entries:
            return
        for unit_key in list(entries):
            if unit_key in self.scheduler.units:
                self.scheduler.restore_allocation(unit_key, machine,
                                                  entries.pop(unit_key))
        if not entries:
            del self._pending_allocations[machine]

    def _retry_pending_allocations(self) -> None:
        """Install buffered (machine, unit, count) entries whose pieces arrived."""
        for machine, report in list(self._pending_agent_reports.items()):
            if not self.scheduler.pool.has_machine(machine):
                self.scheduler.add_machine(machine, report.rack,
                                           report.capacity, schedule=False)
                self.blacklist.set_known_machines(
                    self.scheduler.pool.machine_count())
                if self.blacklist.is_disabled(machine):
                    self.scheduler.disable_machine(machine)
        for machine, entries in list(self._pending_allocations.items()):
            if not self.scheduler.pool.has_machine(machine):
                continue
            for unit_key in list(entries):
                if unit_key in self.scheduler.units:
                    self.scheduler.restore_allocation(unit_key, machine,
                                                      entries.pop(unit_key))
            if not entries:
                del self._pending_allocations[machine]


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
            # Symmetrically, tell every agent the authoritative allocation
            # books: an agent may hold grants for an app that finished (or
            # whose AM died) during the failover window — no AM will ever
            # return those, so without this wholesale push the agent's
            # hard-state entry would leak forever.
            for machine in self.scheduler.pool.machines():
                if not self.scheduler.ledger.books_match(
                        machine, reports[machine].allocations):
                    self._send_alloc_full(machine)
            decisions = self.scheduler.schedule_all_machines()
        if self._failover_span is not None:
            machines = (self.scheduler.pool.machine_count()
                        if self.scheduler is not None else 0)
            self.tracer.end_span(self._failover_span,
                                 machines=machines, grants=len(decisions))
            self._failover_span = None
        self._disseminate(decisions)

    def _send_alloc_full(self, machine: str) -> None:
        dest = f"agent:{machine}"
        self.hub.sender(dest, "alloc",
                        full_state=lambda m=machine: self._alloc_state(m))
        state = self._alloc_state(machine)
        self.hub.send_full(dest, "alloc", state, items=len(state))


@contextlib.contextmanager
def _oracle_classes(agent_cls: type) -> Iterator[None]:
    """Clusters built inside the block get ``agent_cls`` agents and
    :class:`PerMachinePushMaster` masters."""
    swaps = [("FuxiAgent", agent_cls), ("FuxiMaster", PerMachinePushMaster)]
    originals = [(name, getattr(runtime, name)) for name, _ in swaps]
    for name, oracle in swaps:
        setattr(runtime, name, oracle)
    try:
        yield
    finally:
        for name, original in originals:
            setattr(runtime, name, original)


def per_beat_agents() -> ContextManager[None]:
    """Every beat and every push a message and an event of its own."""
    return _oracle_classes(PerBeatAgent)


def first_beat_agents() -> ContextManager[None]:
    """Cohort beats, but first beats and the push one message each."""
    return _oracle_classes(FirstBeatAgent)


def drive(spec: RunSpec, network: Optional[NetworkConfig] = None,
          oracle: Optional[Callable[[], ContextManager[None]]] = None,
          prepare: Optional[Callable[[runtime.FuxiCluster], None]] = None):
    """Build, warm up and drive ``spec`` closed-loop; returns the cluster
    and its :class:`RunResult` (for ``summary_dict()``).  ``oracle`` (one
    of the context managers above) selects the old classes; ``prepare``
    sees the built cluster before it warms up (to arm extra events)."""
    builder = ClusterBuilder(
        racks=spec.racks, machines_per_rack=spec.machines_per_rack,
        machine_cpu=spec.machine_cpu, machine_memory=spec.machine_memory,
        seed=spec.seed, network=network,
        policy=spec.policy if spec.policy != "fuxi" else None,
        agent_config=FuxiAgentConfig(
            worker_start_delay=spec.worker_start_delay))
    with oracle() if oracle is not None else contextlib.nullcontext():
        cluster = builder.build(warm_up=False)
    if spec.fault_spec:
        cluster.schedule_faults(FaultPlan.from_spec(spec.fault_spec))
    if prepare is not None:
        prepare(cluster)
    cluster.enable_utilization_sampling(spec.utilization_sample_interval)
    cluster.warm_up()
    workload = SyntheticWorkload(
        SyntheticWorkloadConfig(concurrent_jobs=spec.concurrent_jobs,
                                scale=spec.workload_scale,
                                workers_cap=spec.workers_cap,
                                mix=spec.workload_mix,
                                hint_fraction=spec.hint_fraction),
        cluster.rng)
    result = RunResult(cluster=cluster, spec=spec)
    ideals: Dict[str, float] = {}
    owed = spec.concurrent_jobs
    replaced: set = set()
    deadline = cluster.loop.now + spec.duration
    while True:
        while owed and cluster.primary_master is not None:
            job = workload.next_job()
            ensure_input_files(cluster.blockstore, job)
            app_id = cluster.submit_job(job, description_overrides={
                "am_start_delay": spec.am_start_delay})
            result.submitted.append(app_id)
            ideals[app_id] = critical_path_length(job)
            owed -= 1
        if cluster.loop.now >= deadline:
            break
        cluster.run_for(2.0)
        for app_id in list(cluster.job_results):
            if app_id not in replaced:
                replaced.add(app_id)
                result.jobs_completed += 1
                ideal = ideals.pop(app_id, 0.0)
                if ideal > 0:
                    result.slowdowns.append(round(
                        cluster.job_results[app_id].makespan / ideal, 6))
                cluster.reap_job(app_id)
                owed += 1
    return cluster, result
