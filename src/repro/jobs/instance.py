"""Task instance state machine.

An *instance* is one shard of a task's work.  The states mirror §4.2/§4.3:
instances wait for a worker, run, and either finish or fail and are
rescheduled elsewhere (consulting the blacklist).  Long-tail instances may
get a *backup* twin; the first to finish wins.

Both records are slotted, and an instance's attempts are a tuple, empty
until the first one starts: a live job holds one :class:`Instance` per
shard, waiting ones included (DESIGN.md §12, "What a job costs").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Collection, List, Optional, Tuple


class InstanceState(enum.Enum):
    WAITING = "waiting"     # no worker yet
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"       # terminally (attempts exhausted)


@dataclass(slots=True)
class Attempt:
    """One execution attempt of an instance on one worker."""

    worker_id: str
    machine: str
    started_at: float
    is_backup: bool = False
    finished_at: Optional[float] = None


@dataclass(slots=True)
class Instance:
    """One schedulable shard of a task."""

    task: str
    index: int
    duration: float                      # intrinsic work time (unscaled)
    state: InstanceState = InstanceState.WAITING
    attempts: Tuple[Attempt, ...] = ()
    preferred_machines: Collection[str] = ()   # shared, never mutated
    started_at: Optional[float] = None   # first attempt start (AM view)
    finished_at: Optional[float] = None
    winning_attempt: Optional[Attempt] = None
    failures: int = 0

    @property
    def instance_id(self) -> str:
        return f"{self.task}/{self.index}"

    @property
    def running_attempts(self) -> List[Attempt]:
        return [a for a in self.attempts if a.finished_at is None]

    def attempt_on(self, worker_id: str) -> Optional[Attempt]:
        for attempt in self.attempts:
            if attempt.worker_id == worker_id and attempt.finished_at is None:
                return attempt
        return None

    def start_attempt(self, worker_id: str, machine: str, now: float,
                      is_backup: bool = False) -> Attempt:
        if self.state in (InstanceState.FINISHED, InstanceState.FAILED):
            raise ValueError(f"instance {self.instance_id} already terminal")
        attempt = Attempt(worker_id, machine, now, is_backup)
        self.attempts += (attempt,)
        self.state = InstanceState.RUNNING
        if self.started_at is None:
            self.started_at = now
        return attempt

    def complete(self, worker_id: str, now: float) -> Optional[Attempt]:
        """Mark the attempt on ``worker_id`` as the winner.  Idempotent."""
        if self.state == InstanceState.FINISHED:
            return None
        attempt = self.attempt_on(worker_id)
        if attempt is None:
            return None
        attempt.finished_at = now
        self.state = InstanceState.FINISHED
        self.finished_at = now
        self.winning_attempt = attempt
        return attempt

    def fail_attempt(self, worker_id: str, now: float) -> Optional[Attempt]:
        """One attempt failed; instance goes back to WAITING unless a twin runs."""
        attempt = self.attempt_on(worker_id)
        if attempt is None:
            return None
        attempt.finished_at = now
        self.failures += 1
        if self.state == InstanceState.RUNNING and not self.running_attempts:
            self.state = InstanceState.WAITING
        return attempt

    def abandon_others(self, winner_worker: str, now: float) -> List[Attempt]:
        """Cancel sibling attempts after a win; returns the cancelled ones."""
        cancelled = []
        for attempt in self.attempts:
            if attempt.finished_at is None and attempt.worker_id != winner_worker:
                attempt.finished_at = now
                cancelled.append(attempt)
        return cancelled

    @property
    def elapsed(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
