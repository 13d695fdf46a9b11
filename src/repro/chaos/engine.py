"""The chaos engine: seeded workload + fault schedule + invariant probe.

``run_chaos(seed)`` derives everything from the seed — cluster wiring,
a small mapreduce workload with staggered submissions, and a randomized
but survivable :class:`~repro.cluster.faults.FaultPlan` — then advances
simulated time with an :class:`~repro.chaos.invariants.InvariantChecker`
attached to the event loop via a sampled hook.  The first violation stops
the loop; the run's obs trace (when tracing is on) is dumped with a
violation header so evidence and repro recipe travel together.

``run_with_schedule(seed, plan)`` is the replay/shrink entry point: same
seed-derived cluster and workload, but an explicit fault plan.  The
shrinker calls it repeatedly with subsets of a failing schedule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos.coverage import CoverageProbe
from repro.chaos.invariants import InvariantChecker, Violation
from repro.cluster.faults import FaultPlan
from repro.config import ConfigBase, conf
from repro.cluster.topology import ClusterTopology
from repro.core.agent import FuxiAgentConfig
from repro.core.master import FuxiMasterConfig
from repro.core.policy import validate_policy_name
from repro.core.resources import ResourceVector
from repro.obs.export import dump_violation_trace
from repro._runtime import FuxiCluster
from repro.sim.rng import SplitRandom
from repro.workloads.synthetic import mapreduce_job

SUBMIT_RETRY = 2.0  # how long to wait when no primary can take a job


@dataclass(kw_only=True)
class ChaosConfig(ConfigBase):
    """Knobs for one chaos run; every default keeps runs under a second.

    A :class:`repro.config.ConfigBase`: keyword-only, validated on
    construction, dict-round-trippable, and the source of the derived
    ``fuxi-sim chaos`` CLI flags.
    """

    # cluster shape
    racks: int = conf(2, min=1, help="racks in the chaos cluster")
    machines_per_rack: int = conf(5, min=1, help="machines per rack")
    cpu: float = conf(400.0, min=1.0, help="per-machine CPU (centi-cores)")
    memory: float = conf(8192.0, min=1.0, help="per-machine memory (MB)")
    # workload (sizes are drawn per job from [1, max])
    jobs: int = conf(3, min=1, help="jobs submitted per run",
                     cli="--workload-jobs")
    max_mappers: int = conf(6, min=1, help="mapper draw upper bound")
    max_reducers: int = conf(3, min=1, help="reducer draw upper bound")
    submit_window: float = conf(20.0, min=0.0,
                                help="submissions staggered over this window")
    # fault schedule
    faults: int = conf(6, min=0, help="fault draws per schedule")
    fault_window: float = conf(60.0, min=0.0,
                               help="faults land within this window")
    master_failures: int = conf(1, min=0, help="master kills per schedule")
    network_bursts: int = conf(1, min=0, help="loss/delay bursts per schedule")
    recover_after: float = conf(15.0, min=0.0,
                                help="recovery delay after each fault")
    # run control
    timeout: float = conf(600.0, min=1.0,
                          help="simulated-seconds budget per run")
    settle: float = conf(25.0, min=0.0,
                         help="quiet tail before final invariants")
    slice: float = conf(5.0, min=0.1, help="sim-seconds per advance slice")
    check_every: int = conf(16, min=1,
                            help="invariant probe period (loop steps)")
    trace: bool = conf(True, cli="")      # CLI drives this via --trace-dir
    trace_dir: Optional[str] = conf(None, cli="")
    flight: bool = conf(True, help="flight recorder (ring of recent events, "
                                   "dumped next to the violation trace)")
    flight_capacity: int = conf(512, min=1, cli="",
                                help="flight-recorder ring size")
    coverage: bool = conf(False, cli="",
                          help="collect the fuzzer's coverage feature set "
                               "(state-transition edges + final counters)")
    policy: str = conf("fuxi", help="scheduler policy under chaos (registry "
                                    "name: fuxi, yarn, mesos, hadoop10, "
                                    "size-based, fractional, ...)")

    def validate(self) -> None:
        super().validate()
        validate_policy_name(self.policy)


@dataclass
class ChaosResult:
    """Verdict of one seeded chaos run."""

    seed: int
    schedule: FaultPlan
    app_ids: List[str]
    completed: List[str]
    violations: List[Violation] = field(default_factory=list)
    sim_time: float = 0.0
    events_executed: int = 0
    trace_path: Optional[str] = None
    flight_path: Optional[str] = None
    #: sorted coverage feature set (None unless config.coverage was on)
    coverage: Optional[List[str]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """Deterministic JSON-able form (sweep journal / merged reports).

        Every field is a pure function of (seed, config): fault schedule,
        job completion, violations stamped with simulated time.  No
        wall-clock values, so campaign merges are byte-reproducible.  The
        ``coverage`` key appears only when the run collected it, keeping
        plain chaos-campaign merges byte-stable.
        """
        data = {
            "seed": self.seed,
            "ok": self.ok,
            "schedule": self.schedule.to_spec(),
            "faults": len(self.schedule.events),
            "app_ids": list(self.app_ids),
            "completed": list(self.completed),
            "violations": [v.to_dict() for v in self.violations],
            "sim_time": round(self.sim_time, 6),
            "events_executed": self.events_executed,
            "trace_path": self.trace_path,
            "flight_path": self.flight_path,
        }
        if self.coverage is not None:
            data["coverage"] = list(self.coverage)
        return data

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"VIOLATION {self.violations[0]}"
        return (f"seed={self.seed} jobs={len(self.completed)}/"
                f"{len(self.app_ids)} t={self.sim_time:.1f} "
                f"faults={len(self.schedule.events)} {verdict}")


# --------------------------------------------------------------------- #
# deterministic builders
# --------------------------------------------------------------------- #

def build_cluster(seed: int, config: ChaosConfig) -> FuxiCluster:
    """Cluster wiring is a pure function of (seed, config)."""
    topology = ClusterTopology.build(
        config.racks, config.machines_per_rack,
        capacity=ResourceVector.of(cpu=config.cpu, memory=config.memory))
    master_config = None
    if config.policy != "fuxi":
        # only non-default policies touch the master config, so default
        # chaos runs stay byte-identical to the committed corpus
        master_config = FuxiMasterConfig()
        master_config.scheduler = master_config.scheduler.replace(
            policy=config.policy)
    return FuxiCluster(
        topology, seed=seed,
        master_config=master_config,
        agent_config=FuxiAgentConfig(worker_start_delay=0.2),
        trace=config.trace)


def build_schedule(seed: int, config: ChaosConfig,
                   machines: List[str]) -> FaultPlan:
    """The randomized-but-survivable fault plan for this seed."""
    rng = SplitRandom(seed)
    return FaultPlan.random(
        machines, rng,
        faults=config.faults,
        window=config.fault_window,
        recover_after=config.recover_after,
        master_failures=config.master_failures,
        network_bursts=config.network_bursts)


def _submit_workload(cluster: FuxiCluster, seed: int,
                     config: ChaosConfig) -> List[str]:
    """Schedule staggered job submissions; returns the fixed app ids.

    Submissions retry instead of raising while no primary master exists
    (a master kill may land exactly on a submit time).
    """
    draw = SplitRandom(seed).stream("chaos-workload")
    app_ids: List[str] = []
    base = cluster.loop.now

    def submit(spec, app_id: str) -> None:
        if cluster.primary_master is None:
            cluster.loop.call_after(SUBMIT_RETRY, submit, spec, app_id)
            return
        cluster.submit_job(spec, app_id=app_id)

    for index in range(config.jobs):
        app_id = f"chaos-{index:03d}"
        spec = mapreduce_job(
            app_id,
            mappers=draw.randint(1, config.max_mappers),
            reducers=draw.randint(1, config.max_reducers),
            map_duration=round(draw.uniform(2.0, 6.0), 2),
            reduce_duration=round(draw.uniform(3.0, 8.0), 2))
        at = base + draw.uniform(0.0, config.submit_window)
        cluster.loop.call_at(at, submit, spec, app_id)
        app_ids.append(app_id)
    return app_ids


# --------------------------------------------------------------------- #
# the runs
# --------------------------------------------------------------------- #

def run_with_schedule(seed: int, plan: FaultPlan,
                      config: Optional[ChaosConfig] = None) -> ChaosResult:
    """Run the seed's workload under an *explicit* fault schedule."""
    config = config or ChaosConfig()
    cluster = build_cluster(seed, config)
    if config.flight:
        cluster.enable_flight_recorder(capacity=config.flight_capacity)
    cluster.warm_up()

    checker = InvariantChecker()
    coverage = CoverageProbe() if config.coverage else None

    def probe(loop, event, wall) -> None:
        if coverage is not None:
            coverage.observe(cluster)
        if checker.check_step(cluster):
            if cluster.flight is not None:
                for violation in checker.violations:
                    cluster.flight.record("violation",
                                          invariant=violation.invariant,
                                          detail=violation.detail,
                                          time=violation.time)
            loop.stop()

    handle = cluster.loop.add_hook(probe, sample_every=config.check_every)
    app_ids = _submit_workload(cluster, seed, config)
    shifted = plan.shifted(cluster.loop.now)
    cluster.faults.schedule(shifted)
    horizon = max((e.at + e.duration for e in shifted.events), default=0.0)

    while cluster.loop.now < config.timeout and not checker.violations:
        cluster.run_for(config.slice)
        if all(app_id in cluster.job_results for app_id in app_ids):
            break

    if not checker.violations:
        # Let in-flight faults heal and books drain before final audits.
        cluster.run_until(max(cluster.loop.now + config.settle,
                              horizon + config.settle))
    cluster.loop.remove_hook(handle)
    completed = [a for a in app_ids if a in cluster.job_results]
    if not checker.violations:
        checker.check_final(cluster, app_ids)
    if coverage is not None:
        coverage.finalize(cluster, app_ids, checker.violations)

    result = ChaosResult(
        seed=seed, schedule=plan, app_ids=app_ids, completed=completed,
        violations=list(checker.violations),
        sim_time=cluster.loop.now,
        events_executed=cluster.events_total,
        coverage=list(coverage.features()) if coverage is not None else None)
    if result.violations:
        if config.trace and config.trace_dir:
            result.trace_path = _dump_trace(cluster, result, config)
        if cluster.flight is not None and config.trace_dir:
            result.flight_path = _dump_flight(cluster, result, config)
    return result


def run_chaos(seed: int,
              config: Optional[ChaosConfig] = None) -> ChaosResult:
    """Derive the fault schedule from the seed and run it."""
    config = config or ChaosConfig()
    topology = ClusterTopology.build(
        config.racks, config.machines_per_rack,
        capacity=ResourceVector.of(cpu=config.cpu, memory=config.memory))
    plan = build_schedule(seed, config, topology.machines())
    return run_with_schedule(seed, plan, config)


def _dump_trace(cluster: FuxiCluster, result: ChaosResult,
                config: ChaosConfig) -> str:
    os.makedirs(config.trace_dir, exist_ok=True)
    path = os.path.join(config.trace_dir,
                        f"chaos-seed{result.seed}-violation.jsonl")
    first = result.violations[0]
    dump_violation_trace(cluster.tracer, path, context={
        "seed": result.seed,
        "invariant": first.invariant,
        "detail": first.detail,
        "sim_time": first.time,
        "schedule": result.schedule.to_spec(),
        "racks": config.racks,
        "machines_per_rack": config.machines_per_rack,
    })
    return path


def _dump_flight(cluster: FuxiCluster, result: ChaosResult,
                 config: ChaosConfig) -> str:
    """Write the flight-recorder ring next to the violation trace.

    The header context is a complete replay recipe: feeding ``seed`` and
    ``schedule`` back through :func:`run_with_schedule` (with the same
    config) reproduces the violation deterministically — a test pins it.
    """
    os.makedirs(config.trace_dir, exist_ok=True)
    path = os.path.join(config.trace_dir,
                        f"chaos-seed{result.seed}-flight.jsonl")
    first = result.violations[0]
    cluster.flight.dump(path, context={
        "reason": "violation",
        "seed": result.seed,
        "invariant": first.invariant,
        "detail": first.detail,
        "sim_time": first.time,
        "schedule": result.schedule.to_spec(),
        "config": config.to_dict(),
    })
    return path
