"""Reproduction of "Fuxi: a Fault-Tolerant Resource Management and Job
Scheduling System at Internet Scale" (Zhang et al., VLDB 2014).

The package implements the full Fuxi stack on a deterministic discrete-event
cluster simulator:

- :mod:`repro.api` — the public facade: :class:`ClusterBuilder`,
  :func:`simulate`, :class:`RunSpec`/:class:`RunResult`;
- :mod:`repro.sim` — the event-loop kernel (actors, timers);
- :mod:`repro.cluster` — machines, racks, network, lock service, block
  store, metrics and fault injection;
- :mod:`repro.core` — the incremental resource-management protocol, the
  locality-tree scheduler, quota/preemption, FuxiMaster/FuxiAgent with
  user-transparent failover, and the multi-level blacklist;
- :mod:`repro.jobs` — the DAG job framework (JobMaster/TaskMaster,
  workers, backup instances, the GraySort model);
- :mod:`repro.baselines` — YARN-, Mesos-, Hadoop-1.0-, HFSP- and
  DFRS-style scheduling policies on the same scheduler substrate, used
  by the scheduler arena and the ablation benchmarks;
- :mod:`repro.workloads` — synthetic, production-trace and sort workloads;
- :mod:`repro.experiments` — one harness per paper table/figure;
- :mod:`repro.parallel` — the process-pool sweep engine: independent
  runs (chaos seeds, config grids, repetitions) fanned over workers with
  a serial-equivalent deterministic merge and a resumable JSONL journal.

Quick start::

    from repro import ClusterBuilder
    from repro.workloads.synthetic import mapreduce_job

    cluster = ClusterBuilder(racks=2, machines_per_rack=10).build()
    app_id = cluster.submit_job(mapreduce_job("demo", mappers=40, reducers=5))
    cluster.run_until_complete([app_id], timeout=600)
    print(cluster.job_results[app_id].makespan)

Or run the paper's closed-loop synthetic workload in one call::

    from repro import RunSpec, simulate
    result = simulate(RunSpec(concurrent_jobs=80, duration=120.0), seed=7)
    print(result.jobs_completed)
"""

from repro._runtime import FuxiCluster
from repro.api import ClusterBuilder, RunResult, RunSpec, simulate
from repro.cluster.topology import ClusterTopology
from repro.core.resources import CPU, MEMORY, ResourceVector
from repro.core.scheduler import SchedulerConfig

__version__ = "1.1.0"

__all__ = ["ClusterBuilder", "RunSpec", "RunResult", "simulate",
           "FuxiCluster", "ClusterTopology", "SchedulerConfig",
           "ResourceVector", "CPU", "MEMORY", "__version__"]
