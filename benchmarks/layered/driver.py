"""The harness's own closed-loop driver, timed from outside.

Mirrors ``repro.api.simulate`` slice for slice (2 sim-s slices, finished
jobs replaced at slice ends, young GC between slices) but is built only
from public pieces, so set-up, slices, submits, reaps and GC can each be
timed here without touching ``src/``.  ``test_parity.py`` pins that both
drivers produce the same grant stream.

One deliberate difference: while no primary FuxiMaster exists (a failover
is in flight) a replacement submit is owed to the next slice end.
``simulate()`` raises ``RuntimeError: no primary FuxiMaster`` there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro import kernels
from repro.api import ClusterBuilder
from repro.core.agent import FuxiAgentConfig
from repro.jobs.dag import critical_path_length
from repro.sim.gctune import collect_young, deferred_gc
from repro.workloads.synthetic import (SyntheticWorkload,
                                       SyntheticWorkloadConfig,
                                       ensure_input_files)

from workloads import SLICE, Shape

#: the RunSpec defaults ``simulate()`` runs with
MACHINE_CPU = 440.0
MACHINE_MEMORY = 8 * 2048.0
WORKERS_CAP = 12
WORKER_START_DELAY = 2.0
AM_START_DELAY = 0.5
UTILIZATION_INTERVAL = 5.0

perf = time.perf_counter


@dataclass
class Window:
    """Host-time and simulated outcomes of one driven window."""

    sim_start: float = 0.0
    sim_seconds: float = 0.0
    wall_s: float = 0.0
    #: CPU seconds this process got inside the window; well below
    #: ``wall_s`` means the host took the processor away
    cpu_s: float = 0.0
    #: wall of each loop iteration (slice, replacements, young GC)
    iteration_s: List[float] = field(default_factory=list)
    submit_s: float = 0.0
    reap_s: float = 0.0
    gc_s: float = 0.0
    events: int = 0
    finished: int = 0
    unsuccessful: int = 0
    owed_submits: int = 0
    slowdowns: List[float] = field(default_factory=list)
    backups_launched: int = 0
    #: every scheduler that served as primary (a failover builds a new one)
    schedulers: list = field(default_factory=list)


class ClosedLoop:
    """A built, warmed-up cluster with its job population submitted."""

    def __init__(self, shape: Shape, seed: int):
        kernels.select("auto")
        self.cluster = cluster = ClusterBuilder(
            racks=shape.racks, machines_per_rack=shape.machines_per_rack,
            machine_cpu=MACHINE_CPU, machine_memory=MACHINE_MEMORY,
            seed=seed,
            agent_config=FuxiAgentConfig(
                worker_start_delay=WORKER_START_DELAY)).build(warm_up=False)
        plan = shape.fault_plan(cluster.topology.machines())
        if plan is not None:
            cluster.schedule_faults(plan)
        cluster.enable_utilization_sampling(UTILIZATION_INTERVAL)
        cluster.warm_up()
        self.workload = SyntheticWorkload(
            SyntheticWorkloadConfig(concurrent_jobs=shape.jobs,
                                    scale=shape.workload_scale,
                                    workers_cap=WORKERS_CAP, mix=shape.mix,
                                    hint_fraction=shape.hint_fraction),
            cluster.rng)
        self.ideals: Dict[str, float] = {}
        self.submitted = 0
        self.replaced: set = set()
        for _ in range(shape.jobs):
            self.submit_one()

    def submit_one(self) -> None:
        job = self.workload.next_job()
        ensure_input_files(self.cluster.blockstore, job)
        app_id = self.cluster.submit_job(
            job, description_overrides={"am_start_delay": AM_START_DELAY})
        self.ideals[app_id] = critical_path_length(job)
        self.submitted += 1

    def run(self, duration: float) -> Window:
        """Drive ``duration`` simulated seconds; the clock covers first
        slice start to last slice end."""
        cluster = self.cluster
        out = Window(sim_start=cluster.loop.now, sim_seconds=duration)
        events_before = cluster.events_total
        deadline = cluster.loop.now + duration
        with deferred_gc():
            cpu_started = time.process_time()
            started = mark = perf()
            while cluster.loop.now < deadline:
                self._slice(out)
                for app_id in list(cluster.job_results):
                    if app_id not in self.replaced:
                        self._reap(app_id, out)
                        self._submit_owed(out)
                self._submit_owed(out)
                self._collect(out)
                now = perf()
                out.iteration_s.append(now - mark)
                mark = now
            out.wall_s = mark - started
            out.cpu_s = time.process_time() - cpu_started
        out.events = cluster.events_total - events_before
        return out

    def _slice(self, out: Window) -> None:
        self.cluster.run_for(SLICE)
        primary = self.cluster.primary_master
        scheduler = primary.scheduler if primary is not None else None
        if scheduler is not None and all(scheduler is not seen
                                         for seen in out.schedulers):
            out.schedulers.append(scheduler)

    def _reap(self, app_id: str, out: Window) -> None:
        started = perf()
        self.replaced.add(app_id)
        result = self.cluster.job_results[app_id]
        out.finished += 1
        out.unsuccessful += not result.success
        out.backups_launched += result.backups_launched
        ideal = self.ideals.pop(app_id, 0.0)
        if ideal > 0:
            out.slowdowns.append(result.makespan / ideal)
        self.cluster.reap_job(app_id)
        out.owed_submits += 1
        out.reap_s += perf() - started

    def _submit_owed(self, out: Window) -> None:
        """Replace finished jobs, unless a failover leaves nobody to ask."""
        started = perf()
        while out.owed_submits and self.cluster.primary_master is not None:
            self.submit_one()
            out.owed_submits -= 1
        out.submit_s += perf() - started

    def _collect(self, out: Window) -> None:
        started = perf()
        collect_young()
        out.gc_s += perf() - started

    def window_series(self, name: str, window: Window) -> List[float]:
        """The values a metrics series recorded inside the window."""
        return [value
                for when, value in self.cluster.metrics.series(name).points
                if when >= window.sim_start]

    def close(self) -> None:
        self.cluster.finalize()


def percentile(ordered: List[float], q: float) -> float:
    """Linear-interpolated percentile of a sorted, non-empty list."""
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def fingerprint(loop: ClosedLoop, window: Window) -> dict:
    """What two same-seed runs of the same code must agree on exactly."""
    cluster = loop.cluster
    return {
        "grant_stream": [f"{master.name}:{master.grant_stream_digest:016x}"
                         f":{master.grants_disseminated}"
                         for master in cluster.masters],
        "events": cluster.events_total,
        "units_granted": sum(s.stats.units_granted
                             for s in window.schedulers),
        "jobs_finished": window.finished,
        "jobs_submitted": loop.submitted,
    }
