"""``repro.api`` — the one public surface of the Fuxi reproduction.

Everything a user needs lives here; ``repro.core.*`` and the other
subpackages are internals.  Two entry points:

- :class:`ClusterBuilder` — construct a wired :class:`FuxiCluster` from
  keyword arguments or fluent calls, for hands-on driving (submit specific
  jobs, inject faults, inspect masters)::

      cluster = (ClusterBuilder(racks=4, machines_per_rack=25)
                 .seed(42).trace(True).build())
      app_id = cluster.submit_job(mapreduce_job("wc", mappers=100))
      cluster.run_until_complete([app_id])

- :func:`simulate` — run the paper's §5.2 closed-loop synthetic workload
  (the setup behind Figure 9/10 and Table 2) in one call and get a
  :class:`RunResult` back::

      result = simulate(RunSpec(racks=4, machines_per_rack=15,
                                concurrent_jobs=80, duration=300.0),
                        seed=7)
      print(result.jobs_completed,
            result.metrics.series("fm.schedule_ms").mean())

Same spec + same seed is byte-identical: the entire simulation is
deterministic, including trace export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro._runtime import FuxiCluster
from repro.cluster.metrics import percentile
from repro.cluster.network import NetworkConfig
from repro.cluster.topology import ClusterTopology
from repro.config import ConfigBase, conf
from repro.core.agent import FuxiAgentConfig
from repro.core.appmaster import AppMasterConfig
from repro.core.master import FuxiMasterConfig
from repro.core.policy import validate_policy_name
from repro.core.resources import ResourceVector
from repro.core.scheduler import SchedulerConfig
from repro.jobs.dag import critical_path_length
from repro.sim.gctune import collect_young, deferred_gc, paused_gc
from repro.workloads.synthetic import (MIXES, SyntheticWorkload,
                                       SyntheticWorkloadConfig,
                                       ensure_input_files)

__all__ = ["ClusterBuilder", "RunSpec", "RunResult", "simulate",
           "FuxiCluster", "SchedulerConfig"]


@dataclass(kw_only=True)
class RunSpec(ConfigBase):
    """A §5.2-style synthetic run, validated and dict-round-trippable.

    The default machine shape packs 8 paper instances ({0.5 core, 2 GB})
    per machine by memory and slightly fewer by CPU, making memory the
    binding dimension as in Figure 10.
    """

    racks: int = conf(4, help="racks in the cluster", min=1)
    machines_per_rack: int = conf(15, help="machines per rack", min=1)
    machine_cpu: float = conf(440.0, help="per-machine CPU (centi-cores)",
                              min=1.0)
    machine_memory: float = conf(8 * 2048.0, help="per-machine memory (MB)",
                                 min=1.0)
    concurrent_jobs: int = conf(80, help="closed-loop job population",
                                min=1, cli="--jobs")
    duration: float = conf(300.0, help="simulated seconds of steady state",
                           min=0.0)
    workload_scale: int = conf(100, help="job size scale factor", min=1)
    workload_mix: str = conf("paper",
                             help="synthetic shape mix (paper/small/large)",
                             choices=tuple(sorted(MIXES)))
    workers_cap: int = conf(12, help="max workers per job", min=1)
    hint_fraction: float = conf(
        -1.0, help="fraction of jobs carrying input-locality hints "
                   "(-1 = the workload mix's preset)", min=-1.0)
    policy: str = conf("fuxi",
                       help="scheduler policy (a repro.core.policy registry "
                            "name: fuxi, yarn, mesos, hadoop10, size-based, "
                            "fractional, ...)")
    seed: int = conf(7, help="simulation seed")
    worker_start_delay: float = conf(
        2.0, help="binary download + process start (Table 2)", min=0.0)
    am_start_delay: float = conf(0.5, help="AppMaster start delay", min=0.0)
    utilization_sample_interval: float = conf(
        5.0, help="Figure-10 sampling period", min=0.0)
    trace: bool = conf(False, help="structured tracing (repro.obs)")
    live_sample: bool = conf(
        False, help="periodic cluster snapshot sampler (fuxi-sim top / "
                    "report feed)")
    live_sample_interval: float = conf(
        5.0, help="live sampler cadence in simulated seconds", min=0.25)
    flight_recorder: bool = conf(
        False, help="ring-buffer recent events; dump on crash")
    profile: bool = conf(
        False, help="per-subsystem wall/event attribution "
                    "(RunResult.profile_report)")
    flight_dump: Optional[str] = conf(
        None, help="crash-dump path for the flight recorder", cli="")
    closed_loop: bool = conf(
        True, help="replace each finished job to hold the population "
                   "('we keep 1,000 jobs concurrently running')", cli="")
    gc_isolation: bool = conf(
        True, help="freeze the setup heap and defer GC to slice "
                   "boundaries (kills multi-hundred-ms collection pauses "
                   "inside timed scheduling sections)")
    fault_spec: str = conf(
        "", help="semicolon-separated fault plan applied to the run, "
                 "kind@time[:machine][:key=value] tokens "
                 "(e.g. 'NodeDown@20:r00m003;MasterFailure@40')",
        cli="--faults")

    def validate(self) -> None:
        super().validate()
        # Registry-backed, so third-party register_policy() extensions are
        # accepted and a typo fails with the list of registered names.
        validate_policy_name(self.policy)
        if self.fault_spec:
            from repro.cluster.faults import FaultPlan
            FaultPlan.from_spec(self.fault_spec)  # raises on junk
        if self.hint_fraction != -1.0 \
                and not 0.0 <= self.hint_fraction <= 1.0:
            raise ValueError(f"hint_fraction must be in [0, 1] or -1 for "
                             f"the mix preset, got {self.hint_fraction}")

    @property
    def machines(self) -> int:
        return self.racks * self.machines_per_rack


@dataclass
class RunResult:
    """What :func:`simulate` hands back."""

    cluster: FuxiCluster
    spec: RunSpec
    submitted: List[str] = field(default_factory=list)
    jobs_completed: int = 0
    #: per-completed-job makespan / critical-path lower bound (sim time)
    slowdowns: List[float] = field(default_factory=list)

    @property
    def metrics(self):
        return self.cluster.metrics

    @property
    def job_results(self) -> Dict[str, object]:
        return self.cluster.job_results

    @property
    def timeseries(self):
        """The live sampler's :class:`TimeSeriesStore` (None if not enabled)."""
        sampler = self.cluster.sampler
        return sampler.store if sampler is not None else None

    def profile_report(self) -> Optional[Dict[str, object]]:
        """Per-subsystem attribution (None unless ``spec.profile``)."""
        profiler = self.cluster.profiler
        return profiler.report() if profiler is not None else None

    def write_timeseries(self, path: str, include_wall: bool = False) -> bool:
        """Export the sampled feed as JSONL; False if sampling was off."""
        store = self.timeseries
        if store is None:
            return False
        store.dump_jsonl(path, include_wall=include_wall)
        return True

    def write_trace(self, path: str) -> bool:
        """Export the run's JSONL trace; False if tracing was off."""
        if not self.cluster.tracer.enabled:
            return False
        from repro.obs.export import dump_trace_jsonl
        dump_trace_jsonl(self.cluster.tracer, path)
        return True

    def summary_dict(self) -> Dict[str, object]:
        """The run's deterministic counters as a plain JSON-able dict.

        Everything here is a pure function of (spec, seed) — simulated
        time, event counts, scheduler counters — with no wall-clock
        readings, so sweep merges built from it are byte-reproducible.
        This is the payload the parallel sweep engine ships back from
        worker processes instead of the (unpicklable) live cluster.
        """
        summary = {
            "spec": self.spec.to_dict(),
            "seed": self.spec.seed,
            "jobs_submitted": len(self.submitted),
            "jobs_completed": self.jobs_completed,
            "sim_seconds": round(self.cluster.loop.now, 6),
            "events": self.cluster.events_total,
            "sched_requests": int(self.metrics.counter("fm.requests")),
            "grants": int(self.metrics.counter("fm.grants")),
            # FNV-1a fold over every disseminated grant, per master: equal
            # digests certify the full grant streams were identical.
            "grant_stream": [
                {"master": master.name,
                 "digest": f"{master.grant_stream_digest:016x}",
                 "grants": master.grants_disseminated}
                for master in self.cluster.masters],
        }
        primary = self.cluster.primary_master
        if primary is not None and primary.scheduler is not None:
            st = primary.scheduler.stats
            granted = st.units_granted
            local = st.machine_local + st.rack_local
            summary["sched"] = {
                "policy": self.spec.policy,
                "decisions": st.decisions,
                "grants_issued": st.grants_issued,
                "units_granted": granted,
                "units_revoked": st.units_revoked,
                "preemptions": st.preemptions,
                "machine_local": st.machine_local,
                "rack_local": st.rack_local,
                "cluster_wide": st.cluster_wide,
                "locality_hit_rate": (round(local / granted, 6)
                                      if granted else 0.0),
            }
        if self.slowdowns:
            ordered = sorted(self.slowdowns)
            summary["job_slowdown"] = {
                "count": len(ordered),
                "mean": round(sum(ordered) / len(ordered), 6),
                "p50": round(percentile(ordered, 50.0), 6),
                "p95": round(percentile(ordered, 95.0), 6),
                "max": round(ordered[-1], 6),
            }
        utilization: Dict[str, float] = {}
        for key, label in (("cpu", "CPU"), ("memory", "Memory")):
            total = self.metrics.series(f"util.{label}.FM_total").mean()
            planned = self.metrics.series(f"util.{label}.FM_planned").mean()
            if total > 0:
                utilization[key] = round(planned / total, 6)
        if utilization:
            summary["utilization"] = utilization
        store = self.timeseries
        if store is not None:
            # wall columns are dropped by to_dict(): the sweep merge must
            # stay a pure function of (spec, seed)
            summary["timeseries"] = store.to_dict()
        return summary


class ClusterBuilder:
    """Fluent/kwargs construction of a wired, warmed-up FuxiCluster.

    Every knob can be given as a constructor keyword or via the matching
    fluent method; :meth:`build` assembles the cluster and (by default)
    runs the warm-up window so a primary master is elected and every
    machine is registered.
    """

    def __init__(self, *, racks: int = 4, machines_per_rack: int = 25,
                 machine_cpu: float = 400.0,
                 machine_memory: float = 16384.0,
                 seed: int = 0, trace: bool = False,
                 standby_master: bool = True,
                 network: Optional[NetworkConfig] = None,
                 master_config: Optional[FuxiMasterConfig] = None,
                 agent_config: Optional[FuxiAgentConfig] = None,
                 app_master_config: Optional[AppMasterConfig] = None,
                 policy: Optional[str] = None):
        self._racks = racks
        self._machines_per_rack = machines_per_rack
        self._machine_cpu = machine_cpu
        self._machine_memory = machine_memory
        self._seed = seed
        self._trace = trace
        self._standby_master = standby_master
        self._network = network
        self._master_config = master_config
        self._agent_config = agent_config
        self._app_master_config = app_master_config
        self._policy = validate_policy_name(policy) if policy else None

    # fluent setters ---------------------------------------------------- #

    def topology(self, racks: int, machines_per_rack: int) -> "ClusterBuilder":
        self._racks = racks
        self._machines_per_rack = machines_per_rack
        return self

    def machine_shape(self, *, cpu: Optional[float] = None,
                      memory: Optional[float] = None) -> "ClusterBuilder":
        if cpu is not None:
            self._machine_cpu = cpu
        if memory is not None:
            self._machine_memory = memory
        return self

    def seed(self, seed: int) -> "ClusterBuilder":
        self._seed = seed
        return self

    def trace(self, enabled: bool = True) -> "ClusterBuilder":
        self._trace = enabled
        return self

    def standby_master(self, enabled: bool = True) -> "ClusterBuilder":
        self._standby_master = enabled
        return self

    def network(self, config: NetworkConfig) -> "ClusterBuilder":
        self._network = config
        return self

    def master(self, config: FuxiMasterConfig) -> "ClusterBuilder":
        self._master_config = config
        return self

    def scheduler(self, config: SchedulerConfig) -> "ClusterBuilder":
        master = self._master_config or FuxiMasterConfig()
        master.scheduler = config
        self._master_config = master
        return self

    def policy(self, name: str) -> "ClusterBuilder":
        """Select the scheduling policy by registry name (see
        :func:`repro.core.policy.known_policies`)."""
        self._policy = validate_policy_name(name)
        return self

    def agents(self, config: FuxiAgentConfig) -> "ClusterBuilder":
        self._agent_config = config
        return self

    def app_masters(self, config: AppMasterConfig) -> "ClusterBuilder":
        self._app_master_config = config
        return self

    # assembly ---------------------------------------------------------- #

    def to_dict(self) -> Dict[str, object]:
        """The builder's plain knobs (topology/seed/trace), for round-trip."""
        return {
            "racks": self._racks,
            "machines_per_rack": self._machines_per_rack,
            "machine_cpu": self._machine_cpu,
            "machine_memory": self._machine_memory,
            "seed": self._seed,
            "trace": self._trace,
            "standby_master": self._standby_master,
            "policy": self._policy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ClusterBuilder":
        return cls(**data)

    def build(self, warm_up: bool = True) -> FuxiCluster:
        capacity = ResourceVector.of(cpu=self._machine_cpu,
                                     memory=self._machine_memory)
        master_config = self._master_config
        if self._policy is not None:
            # Carry the policy as a config *name*, not a live object: the
            # master rebuilds its scheduler from config on failover, and a
            # string survives the trip (and pickling into sweep workers).
            master_config = master_config or FuxiMasterConfig()
            master_config.scheduler = master_config.scheduler.replace(
                policy=self._policy)
        # the build only allocates: collecting on the way re-scans a heap
        # that only grows (repro.sim.gctune)
        with paused_gc():
            topology = ClusterTopology.build(self._racks,
                                             self._machines_per_rack,
                                             capacity=capacity)
            cluster = FuxiCluster(topology, seed=self._seed,
                                  network=self._network,
                                  master_config=master_config,
                                  agent_config=self._agent_config,
                                  app_master_config=self._app_master_config,
                                  standby_master=self._standby_master,
                                  trace=self._trace)
            if warm_up:
                cluster.warm_up()
        return cluster


def simulate(spec: Optional[RunSpec] = None, *,
             seed: Optional[int] = None,
             trace: Optional[bool] = None,
             on_slice: Optional[Callable[[FuxiCluster, "RunResult"], None]]
             = None) -> RunResult:
    """Run the closed-loop synthetic workload for ``spec.duration`` sim-s.

    ``seed``/``trace`` override the spec's fields without mutating it.

    ``on_slice`` (if given) is called after every 2-simulated-second
    drive slice with the live cluster and the in-progress result — the
    hook ``fuxi-sim top`` uses to render the latest sampler row without
    duplicating this driver.  The callback must not mutate the cluster
    if determinism is to be preserved.

    With ``spec.flight_recorder`` on, an exception escaping the drive
    loop dumps the recorder ring (context + last events) to
    ``spec.flight_dump`` (default ``fuxi-crash-seed{seed}.flight.jsonl``)
    before re-raising.
    """
    spec = spec or RunSpec()
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if trace is not None:
        overrides["trace"] = trace
    if overrides:
        spec = spec.replace(**overrides)

    cluster = (ClusterBuilder(racks=spec.racks,
                              machines_per_rack=spec.machines_per_rack,
                              machine_cpu=spec.machine_cpu,
                              machine_memory=spec.machine_memory,
                              seed=spec.seed, trace=spec.trace,
                              # None for "fuxi" keeps the default-config
                              # path (and its byte-identity) untouched
                              policy=(spec.policy
                                      if spec.policy != "fuxi" else None),
                              agent_config=FuxiAgentConfig(
                                  worker_start_delay=spec.worker_start_delay))
               .build(warm_up=False))
    # Fault plan before the sampler kick: same-instant events tie-break on
    # scheduling order, and the committed digests were recorded in this one.
    if spec.fault_spec:
        from repro.cluster.faults import FaultPlan
        cluster.schedule_faults(FaultPlan.from_spec(spec.fault_spec))
    cluster.enable_utilization_sampling(spec.utilization_sample_interval)
    if spec.live_sample:
        sampler = cluster.enable_live_sampler(spec.live_sample_interval)
        sampler.store.meta.update({"seed": spec.seed,
                                   "machines": spec.machines})
    if spec.flight_recorder:
        cluster.enable_flight_recorder()
    if spec.profile:
        cluster.enable_subsystem_profiler()
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

    def submit_one() -> None:
        job = workload.next_job()
        # place hinted input files before submit so the job master's
        # locality lookup sees their block replica map
        ensure_input_files(cluster.blockstore, job)
        app_id = cluster.submit_job(
            job, description_overrides={"am_start_delay":
                                        spec.am_start_delay})
        result.submitted.append(app_id)
        ideals[app_id] = critical_path_length(job)

    for _ in range(spec.concurrent_jobs):
        submit_one()

    owed = 0

    def submit_owed() -> None:
        # While a master failover is in flight there is nobody to submit
        # to: the replacement is owed to the next slice end with a primary.
        nonlocal owed
        while owed and cluster.primary_master is not None:
            submit_one()
            owed -= 1

    # Closed loop: replace each finished job until the window elapses.
    # deferred_gc: no collection pause can land inside a timed scheduling
    # section; young garbage is reclaimed between slices instead.
    deadline = cluster.loop.now + spec.duration
    replaced: set = set()
    try:
        with deferred_gc(spec.gc_isolation):
            while cluster.loop.now < deadline:
                cluster.run_for(2.0)
                for app_id in list(cluster.job_results):
                    if app_id not in replaced:
                        replaced.add(app_id)
                        result.jobs_completed += 1
                        ideal = ideals.pop(app_id, 0.0)
                        job_result = cluster.job_results[app_id]
                        if ideal > 0:
                            result.slowdowns.append(
                                round(job_result.makespan / ideal, 6))
                        cluster.reap_job(app_id)
                        if spec.closed_loop:
                            owed += 1
                            submit_owed()
                submit_owed()
                if spec.gc_isolation:
                    collect_young()
                if on_slice is not None:
                    on_slice(cluster, result)
    except BaseException as exc:
        if cluster.flight is not None:
            target = (spec.flight_dump
                      or f"fuxi-crash-seed{spec.seed}.flight.jsonl")
            cluster.flight.dump(target, context={
                "reason": "crash",
                "error": f"{type(exc).__name__}: {exc}",
                "seed": spec.seed,
                "sim_time": round(cluster.loop.now, 6),
                "spec": spec.to_dict(),
            })
        raise
    finally:
        cluster.finalize()
    return result
