"""Backup-instance (speculative execution) policy (paper §4.3.2).

Three criteria, all required before launching a backup:

1. the majority of the task's instances (e.g. 90 %) have finished, so the
   average-finished-time estimate is meaningful;
2. the instance has already run several times longer than that average;
3. the instance has exceeded the user-declared *normal* running time —
   this distinguishes genuine long tails from input-data skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.jobs.instance import Instance, InstanceState
from repro.jobs.spec import BackupSpec


@dataclass
class BackupDecision:
    """One instance the policy wants to duplicate."""

    instance: Instance
    running_for: float
    average_finished: float


class BackupPolicy:
    """Stateless evaluator over a task's instances."""

    def __init__(self, spec: BackupSpec):
        self.spec = spec

    def average_finished_time(self, instances: Iterable[Instance]) -> Optional[float]:
        elapsed = [i.elapsed for i in instances
                   if i.state == InstanceState.FINISHED and i.elapsed is not None]
        if not elapsed:
            return None
        return sum(elapsed) / len(elapsed)

    def candidates(self, instances: List[Instance], now: float,
                   finished: Optional[int] = None) -> List[BackupDecision]:
        """Instances deserving a backup right now.

        ``finished`` is how many of ``instances`` have finished, when the
        caller keeps that count (a TaskMaster does); otherwise they are
        counted here."""
        if not self.spec.enabled or not instances:
            return []
        if finished is None:
            finished = sum(1 for i in instances
                           if i.state == InstanceState.FINISHED)
        if finished < self.spec.finished_fraction * len(instances):
            return []
        average = self.average_finished_time(instances)
        if average is None or average <= 0:
            return []
        decisions = []
        for instance in instances:
            if instance.state != InstanceState.RUNNING:
                continue
            if len(instance.running_attempts) > 1:
                continue  # already has a backup
            if instance.started_at is None:
                continue
            attempt = instance.running_attempts[0]
            running_for = now - attempt.started_at
            if running_for < self.spec.slowdown_factor * average:
                continue
            if running_for < self.spec.normal_duration:
                continue  # could be legitimate input skew
            decisions.append(BackupDecision(instance, running_for, average))
        return decisions
