"""The Fuxi Job framework (paper §4): DAG jobs, hierarchical scheduling,
user-transparent failover, multi-level blacklisting and backup instances.

Public API highlights:

- :class:`~repro.jobs.spec.JobSpec` — the JSON DAG job description
  (Tasks + Pipes, Figure 6).
- :class:`~repro.jobs.jobmaster.DagJobMaster` — the application master
  implementing the two-level JobMaster/TaskMaster model (§4.4, Figure 8).
- :class:`~repro.jobs.taskmaster.TaskMaster` — fine-grained instance
  scheduling with locality, load balance and incremental scanning.
- :mod:`~repro.jobs.sortmodel` — the GraySort/PetaSort execution model used
  for Table 4.
"""

from repro.jobs.spec import JobSpec, TaskSpec, parse_job_description
from repro.jobs.dag import topological_waves, validate_dag
from repro.jobs.instance import Instance, InstanceState
from repro.jobs.taskmaster import TaskMaster
from repro.jobs.jobmaster import DagJobMaster, JobResult
from repro.jobs.backup import BackupPolicy

__all__ = [
    "JobSpec",
    "TaskSpec",
    "parse_job_description",
    "topological_waves",
    "validate_dag",
    "Instance",
    "InstanceState",
    "TaskMaster",
    "DagJobMaster",
    "JobResult",
    "BackupPolicy",
]
