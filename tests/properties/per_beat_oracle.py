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
  window ends in one ``hub.send_full`` per pool machine, each a message of
  its own.

Slow and obviously per-message.  Do not "tidy" the copied bodies; their
value is that they are the old code.

:func:`drive` is the closed-loop driver both sides of the differential run
under; it mirrors ``repro.api.simulate`` slice for slice but takes a
``NetworkConfig``, which ``RunSpec`` has no field for.
"""

from __future__ import annotations

import contextlib
from typing import Callable, ContextManager, Dict, Iterator, List, Optional

import repro._runtime as runtime
from repro.api import ClusterBuilder, RunResult, RunSpec
from repro.cluster.faults import FaultPlan
from repro.cluster.network import NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig
from repro.core.grant import Grant
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


class PerMachinePushMaster(FuxiMaster):
    """FuxiMaster that pushes the post-recovery books machine by machine."""

    def _finish_recovery(self) -> None:
        """Recovery window over: install buffered reports, resume scheduling."""
        self.recovering = False
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
