"""Multi-level machine blacklist (paper §4.3.2).

Escalation ladder, bottom-up:

1. **instance level** — an instance that failed on machine M never retries
   on M (per-instance avoid set);
2. **task level** — when enough *distinct instances* of one task mark M bad,
   the whole task stops using M;
3. **job level** — when enough tasks of a job blacklist M (or the agent's
   failure info says so), the JobMaster marks M bad and tells FuxiMaster;
4. **cluster level** — when *different jobs* independently mark the same M,
   FuxiMaster turns the machine into disabled mode, bounded by a configured
   cap so that blacklist abuse cannot eat the cluster.

The cluster level additionally disables machines on heartbeat timeout and on
persistently low health scores (see :mod:`repro.core.health`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class BlacklistConfig:
    """Escalation thresholds.

    Attributes:
        instances_per_task: distinct failed instances on one machine that
            blacklist the machine for the whole task.
        tasks_per_job: distinct tasks blacklisting a machine that make the
            job mark it bad to FuxiMaster.
        jobs_per_cluster: distinct jobs marking a machine that disable it
            cluster-wide.
        max_disabled_fraction: cap on the fraction of known machines the
            cluster blacklist may disable (the paper's "upper bound limit").
    """

    instances_per_task: int = 3
    tasks_per_job: int = 2
    jobs_per_cluster: int = 2
    max_disabled_fraction: float = 0.2


class JobBlacklist:
    """Levels 1–3, kept by each JobMaster (and shared with FuxiMaster)."""

    def __init__(self, config: Optional[BlacklistConfig] = None):
        self.config = config or BlacklistConfig()
        self._instance_bad: Dict[str, Set[str]] = {}
        self._task_marks: Dict[Tuple[str, str], Set[str]] = {}
        self._task_bad: Dict[str, Set[str]] = {}
        self._job_task_marks: Dict[str, Set[str]] = {}
        self._job_bad: Set[str] = set()

    def record_failure(self, task: str, instance: str, machine: str) -> List[str]:
        """Record an instance failure on ``machine``; returns escalations.

        The return value lists the levels newly reached, among
        ``"task"`` and ``"job"`` (level 1 always applies silently).
        """
        escalations: List[str] = []
        self._instance_bad.setdefault(instance, set()).add(machine)

        markers = self._task_marks.setdefault((task, machine), set())
        markers.add(instance)
        task_bad = self._task_bad.setdefault(task, set())
        if machine not in task_bad and len(markers) >= self.config.instances_per_task:
            task_bad.add(machine)
            escalations.append("task")
            job_markers = self._job_task_marks.setdefault(machine, set())
            job_markers.add(task)
            if (machine not in self._job_bad
                    and len(job_markers) >= self.config.tasks_per_job):
                self._job_bad.add(machine)
                escalations.append("job")
        return escalations

    def mark_job_bad(self, machine: str) -> bool:
        """Directly mark a machine bad at job level (agent failure info)."""
        if machine in self._job_bad:
            return False
        self._job_bad.add(machine)
        return True

    def task_avoids(self, task: str) -> Set[str]:
        return set(self._task_bad.get(task, ())) | self._job_bad

    def job_bad_machines(self) -> Set[str]:
        return set(self._job_bad)

    def allowed(self, task: str, instance: str, machine: str) -> bool:
        """May this instance of this task run on ``machine``?"""
        if machine in self._job_bad:
            return False
        if machine in self._task_bad.get(task, ()):
            return False
        return machine not in self._instance_bad.get(instance, ())


class ClusterBlacklist:
    """Level 4, kept by FuxiMaster; part of the hard state (checkpointed)."""

    def __init__(self, config: Optional[BlacklistConfig] = None):
        self.config = config or BlacklistConfig()
        self._job_marks: Dict[str, Set[str]] = {}
        self._disabled: Dict[str, str] = {}
        self._known_machines = 0

    def set_known_machines(self, count: int) -> None:
        self._known_machines = count

    def _cap(self) -> int:
        if self._known_machines <= 0:
            return 10 ** 9
        return max(1, int(self._known_machines * self.config.max_disabled_fraction))

    def mark_by_job(self, machine: str, job_id: str) -> bool:
        """A job reported ``machine`` bad.  True if the machine became disabled."""
        marks = self._job_marks.setdefault(machine, set())
        marks.add(job_id)
        if machine in self._disabled:
            return False
        if len(marks) >= self.config.jobs_per_cluster:
            return self._disable(machine, reason="jobs")
        return False

    def disable_heartbeat_timeout(self, machine: str) -> bool:
        """Heartbeat from the machine's FuxiAgent timed out."""
        return self._disable(machine, reason="heartbeat")

    def disable_low_health(self, machine: str) -> bool:
        """Health plugins scored the machine too low for too long."""
        return self._disable(machine, reason="health")

    def _disable(self, machine: str, reason: str) -> bool:
        if machine in self._disabled:
            return False
        if len(self._disabled) >= self._cap() and reason == "jobs":
            # Abuse guard only limits job-driven disables; a dead heartbeat
            # is unambiguous and always honoured.
            return False
        self._disabled[machine] = reason
        return True

    def enable(self, machine: str) -> None:
        self._disabled.pop(machine, None)
        self._job_marks.pop(machine, None)

    def clear_job(self, job_id: str) -> None:
        """A job finished; its marks no longer count toward escalation."""
        for machine in list(self._job_marks):
            self._job_marks[machine].discard(job_id)
            if not self._job_marks[machine]:
                del self._job_marks[machine]

    def is_disabled(self, machine: str) -> bool:
        return machine in self._disabled

    def disabled_machines(self) -> Dict[str, str]:
        return dict(self._disabled)

    # ------------------------------------------------------------- #
    # hard-state (de)serialization for checkpointing
    # ------------------------------------------------------------- #

    def snapshot(self) -> dict:
        return {
            "disabled": dict(self._disabled),
            "job_marks": {m: sorted(jobs) for m, jobs in self._job_marks.items()},
        }

    @classmethod
    def from_snapshot(cls, data: dict,
                      config: Optional[BlacklistConfig] = None) -> "ClusterBlacklist":
        blacklist = cls(config)
        blacklist._disabled = dict(data.get("disabled", {}))
        blacklist._job_marks = {
            machine: set(jobs) for machine, jobs in data.get("job_marks", {}).items()
        }
        return blacklist
