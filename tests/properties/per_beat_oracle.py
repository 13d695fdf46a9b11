"""The heartbeat plane as it was before cohorts: one periodic timer, one
send, one delivery event and one ``handle_message`` per beat.

:class:`PerBeatAgent` overrides ``FuxiAgent._start_timers`` and
``_send_heartbeat`` with the bodies those methods had at the commit before
the cohort (the PR-15 anchor), kept verbatim: every agent arms its own
``"heartbeat"`` periodic timer, and every beat is a fresh ``AgentHeartbeat``
through ``Actor.send`` — so it reaches the master through
``_handle_agent_heartbeat``, never through the roll-up.  Slow and obviously
per-beat: the oracle ``test_heartbeat_differential.py`` drives the cohort
path against.  Do not "tidy" the copied bodies; their value is that they
are the old code.  (One adaptation: the old ``health_sample()`` built a new
dict per call, so the copy takes ``dict(...)`` of today's cached one — the
oracle's beats carry a fresh sample object, as they did.)

:func:`drive` is the closed-loop driver both sides of the differential run
under; it mirrors ``repro.api.simulate`` slice for slice but takes a
``NetworkConfig``, which ``RunSpec`` has no field for.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional

import repro._runtime as runtime
from repro.api import ClusterBuilder, RunResult, RunSpec
from repro.cluster.faults import FaultPlan
from repro.cluster.network import NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig
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


@contextlib.contextmanager
def per_beat_agents() -> Iterator[None]:
    """Clusters built inside the block get :class:`PerBeatAgent` agents."""
    original = runtime.FuxiAgent
    runtime.FuxiAgent = PerBeatAgent
    try:
        yield
    finally:
        runtime.FuxiAgent = original


def drive(spec: RunSpec, network: Optional[NetworkConfig] = None,
          per_beat: bool = False):
    """Build, warm up and drive ``spec`` closed-loop; returns the cluster
    and its :class:`RunResult` (for ``summary_dict()``)."""
    builder = ClusterBuilder(
        racks=spec.racks, machines_per_rack=spec.machines_per_rack,
        machine_cpu=spec.machine_cpu, machine_memory=spec.machine_memory,
        seed=spec.seed, network=network,
        policy=spec.policy if spec.policy != "fuxi" else None,
        agent_config=FuxiAgentConfig(
            worker_start_delay=spec.worker_start_delay))
    with per_beat_agents() if per_beat else contextlib.nullcontext():
        cluster = builder.build(warm_up=False)
    if spec.fault_spec:
        cluster.schedule_faults(FaultPlan.from_spec(spec.fault_spec))
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
