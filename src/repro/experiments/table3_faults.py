"""Table 3 + §5.4: fault injection and job slowdown.

Paper, on a 300-node cluster running a GraySort-like job (normal execution
1,437 s):

- 5 % failures (2 NodeDown + 2 PartialWorkerFailure + 11 SlowMachine) →
  1,662 s, a **15.7 %** slowdown;
- 10 % failures (2 + 4 + 23) → 1,762 s, **19.6 %** in the paper's text;
- additionally killing FuxiMaster once on the 5 % scenario costs only an
  extra **13 s**.

The two 10 % figures disagree: 1,762 / 1,437 is a **22.6 %** slowdown
(19.6 % is (1,762 - 1,437) / 1,662, the same delay over the 5 % run's
makespan).  The "10% faults slowdown" comparison uses 22.6 %, the ratio of
the makespans, as the 5 % row does (1,662 / 1,437 = 15.7 %, which the text
quotes); the scenario table prints both.

We run the same protocol at configurable scale: one sort-shaped job, the
Table-3 fault mix injected during execution, and (optionally) a primary
FuxiMaster kill.  The shape claims: slowdown in the tens of percent (not
2x), growing mildly from 5 % to 10 %, and a master failover cost that is
seconds, not minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.faults import FaultPlan
from repro.cluster.topology import ClusterTopology
from repro.core.agent import FuxiAgentConfig
from repro.core.resources import ResourceVector
from repro.experiments.harness import ExperimentReport
from repro.jobs.spec import BackupSpec, JobSpec, TaskSpec
from repro._runtime import FuxiCluster

PAPER_NORMAL_S = 1437.0
PAPER_5PCT_S = 1662.0
PAPER_10PCT_S = 1762.0
PAPER_MASTER_KILL_EXTRA_S = 13.0
#: the 10 % slowdown the paper's text quotes (see the module docstring)
PAPER_10PCT_TEXT_PCT = 19.6


@dataclass
class Table3Config:
    """Scaled-down §5.4 setup (paper: 300 nodes)."""

    racks: int = 5
    machines_per_rack: int = 12
    instances: int = 6000
    instance_duration: float = 4.0
    workers_per_task: int = 6           # per machine ≈ slots
    seed: int = 23
    fault_window: float = 45.0
    fault_start: float = 5.0
    master_kill_at: float = 30.0
    slow_factor: float = 3.0
    timeout: float = 4000.0


def _sort_job(config: Table3Config) -> JobSpec:
    resources = ResourceVector.of(cpu=50, memory=2048)
    machines = config.racks * config.machines_per_rack
    workers = config.workers_per_task * machines
    backup = BackupSpec(enabled=True, finished_fraction=0.85,
                        slowdown_factor=1.8,
                        normal_duration=config.instance_duration * 2.0)
    tasks = {
        "map": TaskSpec("map", config.instances, config.instance_duration,
                        resources, workers=workers, backup=backup),
        "reduce": TaskSpec("reduce", max(config.instances // 4, 1),
                           config.instance_duration * 1.5, resources,
                           workers=workers, backup=backup),
    }
    return JobSpec(name="graysort-like", tasks=tasks,
                   edges=[("map", "reduce")], input_files=[],
                   output_files=[])


def _run_one(config: Table3Config, failure_ratio: float,
             kill_master: bool) -> float:
    capacity = ResourceVector.of(
        cpu=50 * (config.workers_per_task + 1),
        memory=2048 * (config.workers_per_task + 1))
    topology = ClusterTopology.build(config.racks, config.machines_per_rack,
                                     capacity=capacity)
    cluster = FuxiCluster(topology, seed=config.seed,
                          agent_config=FuxiAgentConfig(worker_start_delay=0.3))
    cluster.warm_up()
    if failure_ratio > 0:
        plan = FaultPlan.table3(topology.machines(), failure_ratio,
                                cluster.rng, window=config.fault_window,
                                start=cluster.loop.now + config.fault_start,
                                slow_factor=config.slow_factor)
        if kill_master:
            plan = plan.with_master_failure(
                cluster.loop.now + config.master_kill_at)
        cluster.faults.schedule(plan)
    elif kill_master:
        cluster.loop.call_at(cluster.loop.now + config.master_kill_at,
                             cluster.crash_primary_master)
    app_id = cluster.submit_job(_sort_job(config))
    done = cluster.run_until_complete([app_id], timeout=config.timeout)
    if not done:
        raise RuntimeError(
            f"job did not finish within {config.timeout}s "
            f"(ratio={failure_ratio}, kill_master={kill_master})")
    result = cluster.job_results[app_id]
    if not result.success:
        raise RuntimeError(f"job failed: {result.failure_reason}")
    return result.makespan


def run(config: Optional[Table3Config] = None) -> ExperimentReport:
    """Run the Table 3 / §5.4 experiment; returns an ExperimentReport."""
    config = config or Table3Config()
    normal = _run_one(config, 0.0, kill_master=False)
    with_5 = _run_one(config, 0.05, kill_master=False)
    with_10 = _run_one(config, 0.10, kill_master=False)
    with_5_kill = _run_one(config, 0.05, kill_master=True)

    report = ExperimentReport(
        exp_id="table3", title="Fault injection slowdown (Table 3 / §5.4)")
    report.add_comparison("normal execution", PAPER_NORMAL_S, normal, "s",
                          "baseline (scaled)")
    report.add_comparison("5% faults slowdown",
                          100 * (PAPER_5PCT_S / PAPER_NORMAL_S - 1),
                          100 * (with_5 / normal - 1), "%",
                          "tens of percent, not 2x")
    report.add_comparison("10% faults slowdown",
                          100 * (PAPER_10PCT_S / PAPER_NORMAL_S - 1),
                          100 * (with_10 / normal - 1), "%",
                          "mildly above the 5% case")
    report.add_comparison("master-kill extra time",
                          PAPER_MASTER_KILL_EXTRA_S,
                          with_5_kill - with_5, "s",
                          "seconds, nearly free")
    paper_5 = 100 * (PAPER_5PCT_S / PAPER_NORMAL_S - 1)
    paper_10 = 100 * (PAPER_10PCT_S / PAPER_NORMAL_S - 1)
    report.add_table(
        ["scenario", "makespan (s)", "slowdown", "paper slowdown"],
        [["no faults", f"{normal:.1f}", "-", "-"],
         ["5% faults", f"{with_5:.1f}", f"{100*(with_5/normal-1):.1f}%",
          f"{paper_5:.1f}%"],
         ["10% faults", f"{with_10:.1f}", f"{100*(with_10/normal-1):.1f}%",
          f"{paper_10:.1f}% (text: {PAPER_10PCT_TEXT_PCT:.1f}%)"],
         ["5% + master kill", f"{with_5_kill:.1f}",
          f"{100*(with_5_kill/normal-1):.1f}%",
          f"+{PAPER_MASTER_KILL_EXTRA_S:.0f} s over 5%"]])
    machines = config.racks * config.machines_per_rack
    report.notes.append(
        f"{machines} machines (paper: 300), {config.instances} map instances; "
        "fault mix per Table 3 scaled to cluster size.")
    return report
