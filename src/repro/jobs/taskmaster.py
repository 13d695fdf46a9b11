"""TaskMaster: fine-grained instance scheduling (paper §4.4, Figure 8).

One TaskMaster exists per running task.  It owns the task's instances and
decides which idle worker executes which instance, taking into account:

a) **data locality** — instances go to workers on machines holding their
   input blocks when possible;
b) **load balance** — idle workers are served round-robin, so instances
   spread uniformly;
c) **incremental scheduling** — only unassigned instances are scanned per
   decision, via a pending queue plus a per-machine locality index, which is
   what makes "schedule 100 thousand instances in less than 3 seconds"
   possible (the ``bench_scale_instances`` benchmark measures exactly this).

Per-instance state stays small (§4.3 "lightweight"): the locality index
holds a machine's one queued instance as a bare index and only a longer
queue as a list, the global FIFO is a cursor over the indices never taken
plus a deque made at the first requeue or skip, whether an instance is
pending is one byte of a ``bytearray``, preferred machines are the
collections the caller passed (a block's replica tuple), and an instance
id is resolved from its ``"task/index"`` form rather than through a table
of them.

It also runs the per-task parts of fault tolerance: retry with blacklist
consultation, and the backup-instance policy for long tails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Deque, Dict, List, Optional, Tuple, Union

from repro.core.blacklist import JobBlacklist
from repro.jobs.backup import BackupPolicy
from repro.jobs.instance import Instance, InstanceState
from repro.jobs.spec import TaskSpec


@dataclass
class CompletionResult:
    """What happened when a worker reported completion."""

    won: bool                       # this attempt finished the instance
    duplicate: bool                 # instance was already finished
    cancel_workers: List[str] = field(default_factory=list)


@dataclass
class FailureResult:
    """What happened when an attempt failed."""

    terminal: bool                  # instance exhausted its attempts
    requeued: bool
    escalations: List[str] = field(default_factory=list)


class TaskMaster:
    """Instance scheduler for one task."""

    def __init__(self, spec: TaskSpec, blacklist: Optional[JobBlacklist] = None,
                 durations: Optional[List[float]] = None):
        self.spec = spec
        self.blacklist = blacklist or JobBlacklist()
        self.instances: List[Instance] = []
        for index in range(spec.instances):
            duration = spec.duration
            if durations is not None:
                duration = durations[index % len(durations)]
            self.instances.append(Instance(spec.name, index, duration))
        #: the global FIFO is ``range(_next, instances)`` followed by
        #: ``_pending``: the indices no pop has reached, then those
        #: requeued or skipped, a deque made when the first one is
        self._next = 0
        self._pending: Optional[Deque[int]] = None
        #: 1 at an instance's index while it waits for a worker; the
        #: FIFO and the locality queues may also hold stale entries,
        #: which a 0 here marks
        self._pending_flags = bytearray(b"\x01") * spec.instances
        # machine -> its one queued instance index, or a list of them in
        # reverse FIFO order: pop() takes the head, insert(0, ...) queues
        # at the tail
        self._locality_index: Dict[str, Union[int, List[int]]] = {}
        self._assignment: Dict[str, str] = {}   # worker_id -> instance_id
        self.backup_policy = BackupPolicy(spec.backup)
        self.backups_launched = 0
        # Instances per state (WAITING is the rest), kept by _moved: every
        # state change goes through a method of this class.
        self._running = 0
        self._finished = 0
        self._failed = 0

    # ------------------------------------------------------------------ #
    # setup
    # ------------------------------------------------------------------ #

    def set_locality(self, preferred: Dict[int, Collection[str]]) -> None:
        """Record preferred machines per instance index and build the index.

        Each collection is kept as given, not copied.  A machine it names
        twice is queued once.
        """
        instances = self.instances
        for index, machines in preferred.items():
            if 0 <= index < len(instances):
                instances[index].preferred_machines = machines
        # built from the last index down, so each list ends at its head
        locality: Dict[str, Union[int, List[int]]] = {}
        for index in range(len(instances) - 1, -1, -1):
            for machine in instances[index].preferred_machines:
                queue = locality.get(machine)
                if queue is None:
                    locality[machine] = index
                elif queue.__class__ is int:
                    if queue != index:
                        locality[machine] = [queue, index]
                elif queue[-1] != index:
                    queue.append(index)
        self._locality_index = locality

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #

    def next_assignment(self, worker_id: str, machine: str,
                        now: float) -> Optional[Instance]:
        """Pick an instance for an idle worker; None when nothing suits.

        Local instances first; falls back to the global pending queue.  Only
        unassigned instances are touched (incremental scan).
        """
        if worker_id in self._assignment:
            return None  # already busy by our books
        index = self._pop_local(machine, worker_id)
        if index is None:
            index = self._pop_global(machine, worker_id)
        if index is None:
            return None
        instance = self.instances[index]
        before = instance.state
        instance.start_attempt(worker_id, machine, now)
        self._moved(before, instance.state)
        self._assignment[worker_id] = instance.instance_id
        return instance

    def _pop_local(self, machine: str, worker_id: str) -> Optional[int]:
        queue = self._locality_index.get(machine)
        if queue is None:
            return None
        flags = self._pending_flags
        if queue.__class__ is int:
            # a queue of one: taking its head empties it
            del self._locality_index[machine]
            if flags[queue] and self._allowed(queue, machine):
                flags[queue] = 0
                return queue
            return None
        while queue:
            index = queue.pop()
            if flags[index] and self._allowed(index, machine):
                flags[index] = 0
                return index
        return None

    def _pop_global(self, machine: str, worker_id: str) -> Optional[int]:
        flags = self._pending_flags
        total = len(flags)
        pending = self._pending
        scanned = 0
        limit = total - self._next + (len(pending) if pending else 0)
        while scanned < limit:
            if self._next < total:
                index = self._next
                self._next = index + 1
            elif pending:
                index = pending.popleft()
            else:
                break
            if not flags[index]:
                continue  # stale entry (taken via locality index)
            if not self._allowed(index, machine):
                if pending is None:
                    pending = self._pending = deque()
                pending.append(index)
                scanned += 1
                continue
            flags[index] = 0
            return index
        return None

    def _allowed(self, index: int, machine: str) -> bool:
        instance = self.instances[index]
        return self.blacklist.allowed(self.spec.name, instance.instance_id, machine)

    def bulk_schedule(self, workers: List[Tuple[str, str]],
                      now: float) -> List[Tuple[str, Instance]]:
        """Assign many idle workers in one pass (the §4.4 scale path)."""
        assignments = []
        for worker_id, machine in workers:
            instance = self.next_assignment(worker_id, machine, now)
            if instance is not None:
                assignments.append((worker_id, instance))
        return assignments

    # ------------------------------------------------------------------ #
    # completion / failure
    # ------------------------------------------------------------------ #

    def on_completed(self, worker_id: str, instance_id: str,
                     now: float) -> CompletionResult:
        """Fold in a completion report; detects duplicates and cancels twins."""
        instance = self._find(instance_id)
        # A late duplicate report must not clobber the worker's *current*
        # assignment; only clear the pairing this report is about.
        if self._assignment.get(worker_id) == instance_id:
            self._assignment.pop(worker_id, None)
        if instance is None:
            return CompletionResult(won=False, duplicate=True)
        if instance.state == InstanceState.FINISHED:
            return CompletionResult(won=False, duplicate=True)
        before = instance.state
        attempt = instance.complete(worker_id, now)
        if attempt is None:
            return CompletionResult(won=False, duplicate=True)
        self._moved(before, InstanceState.FINISHED)
        cancelled = instance.abandon_others(worker_id, now)
        cancel_workers = []
        for twin in cancelled:
            self._assignment.pop(twin.worker_id, None)
            cancel_workers.append(twin.worker_id)
        return CompletionResult(won=True, duplicate=False,
                                cancel_workers=cancel_workers)

    def on_failed(self, worker_id: str, instance_id: str, machine: str,
                  now: float) -> FailureResult:
        """Fold in a failure: blacklist bookkeeping, retry or terminal verdict."""
        instance = self._find(instance_id)
        if self._assignment.get(worker_id) == instance_id:
            self._assignment.pop(worker_id, None)
        if instance is None or instance.state == InstanceState.FINISHED:
            return FailureResult(terminal=False, requeued=False)
        escalations = self.blacklist.record_failure(
            self.spec.name, instance_id, machine)
        before = instance.state
        instance.fail_attempt(worker_id, now)
        if instance.failures >= self.spec.max_attempts:
            instance.state = InstanceState.FAILED
            self._moved(before, InstanceState.FAILED)
            # it may be waiting (release_worker requeued it): a failed
            # instance takes no further attempt
            self._pending_flags[instance.index] = 0
            return FailureResult(terminal=True, requeued=False,
                                 escalations=escalations)
        self._moved(before, instance.state)
        if not instance.running_attempts:
            self._requeue(instance.index)
        return FailureResult(terminal=False, requeued=True,
                             escalations=escalations)

    def release_worker(self, worker_id: str, now: float) -> Optional[str]:
        """Worker vanished (machine down / container revoked).

        Its running attempt fails without blaming the machine via the
        blacklist (the cluster level handles dead machines).  Returns the
        instance id that went back to pending, if any.
        """
        instance_id = self._assignment.pop(worker_id, None)
        if instance_id is None:
            return None
        instance = self.instance(instance_id)
        before = instance.state
        instance.fail_attempt(worker_id, now)
        self._moved(before, instance.state)
        if (instance.state not in (InstanceState.FINISHED, InstanceState.FAILED)
                and not instance.running_attempts):
            self._requeue(instance.index)
        return instance_id

    def _requeue(self, index: int) -> None:
        instance = self.instances[index]
        self._moved(instance.state, InstanceState.WAITING)
        instance.state = InstanceState.WAITING
        flags = self._pending_flags
        if not flags[index]:
            flags[index] = 1
            if self._pending is None:
                self._pending = deque()
            self._pending.append(index)
            avoids = self.blacklist.task_avoids(self.spec.name)
            locality = self._locality_index
            # once per machine, even where the hint names one twice
            for machine in dict.fromkeys(instance.preferred_machines):
                if machine not in avoids:
                    queue = locality.get(machine)
                    if queue is None:
                        locality[machine] = index
                    elif queue.__class__ is int:
                        locality[machine] = [index, queue]
                    else:
                        queue.insert(0, index)

    # ------------------------------------------------------------------ #
    # backup instances
    # ------------------------------------------------------------------ #

    def backup_candidates(self, now: float) -> List[Instance]:
        """Instances the §4.3.2 policy wants duplicated right now."""
        return [d.instance
                for d in self.backup_policy.candidates(
                    self.instances, now, finished=self._finished)]

    def start_backup(self, instance: Instance, worker_id: str, machine: str,
                     now: float) -> bool:
        """Run a backup attempt on an idle worker."""
        if worker_id in self._assignment:
            return False
        if not self.blacklist.allowed(self.spec.name, instance.instance_id, machine):
            return False
        if instance.state != InstanceState.RUNNING:
            return False
        running = instance.running_attempts
        if running and running[0].machine == machine:
            return False  # a backup on the same machine is pointless
        instance.start_attempt(worker_id, machine, now, is_backup=True)
        self._assignment[worker_id] = instance.instance_id
        self.backups_launched += 1
        return True

    # ------------------------------------------------------------------ #
    # recovery (a restarted JobMaster folding its snapshot back in)
    # ------------------------------------------------------------------ #

    def restore_finished(self, index: int, started_at: Optional[float],
                         finished_at: Optional[float]) -> None:
        """Mark an instance finished without a worker attempt: its result
        is durable (the JobMaster snapshot recorded it)."""
        instance = self.instances[index]
        self._moved(instance.state, InstanceState.FINISHED)
        instance.state = InstanceState.FINISHED
        instance.started_at = started_at
        instance.finished_at = finished_at
        self._pending_flags[index] = 0

    def adopt_attempt(self, worker_id: str, instance_id: str, machine: str,
                      started_at: float) -> bool:
        """Re-attach an attempt that kept running while the JobMaster was
        down, so its completion lands; False if the instance has already
        finished."""
        instance = self.instance(instance_id)
        if instance.state == InstanceState.FINISHED:
            return False
        self._pending_flags[instance.index] = 0
        before = instance.state
        instance.start_attempt(worker_id, machine, started_at)
        self._moved(before, instance.state)
        self._assignment[worker_id] = instance_id
        return True

    # ------------------------------------------------------------------ #
    # progress
    # ------------------------------------------------------------------ #

    def _moved(self, before: InstanceState, after: InstanceState) -> None:
        """Keep the per-state counts in step with one instance's move."""
        if before is after:
            return
        if before is InstanceState.RUNNING:
            self._running -= 1
        elif before is InstanceState.FINISHED:
            self._finished -= 1
        elif before is InstanceState.FAILED:
            self._failed -= 1
        if after is InstanceState.RUNNING:
            self._running += 1
        elif after is InstanceState.FINISHED:
            self._finished += 1
        elif after is InstanceState.FAILED:
            self._failed += 1

    @property
    def finished_count(self) -> int:
        return self._finished

    @property
    def failed_count(self) -> int:
        return self._failed

    @property
    def pending_count(self) -> int:
        return self._pending_flags.count(1)

    @property
    def running_count(self) -> int:
        return self._running

    def is_complete(self) -> bool:
        """True when every instance has finished."""
        return self._finished == len(self.instances)

    def has_terminal_failure(self) -> bool:
        """True if any instance exhausted its attempts."""
        return self.failed_count > 0

    def instance(self, instance_id: str) -> Instance:
        """Look up an instance by id; KeyError if this task has none."""
        instance = self._find(instance_id)
        if instance is None:
            raise KeyError(instance_id)
        return instance

    def _find(self, instance_id: str) -> Optional[Instance]:
        """The instance ``instance_id`` (``"task/index"``) names, or None."""
        task, _, number = instance_id.rpartition("/")
        if task == self.spec.name and number.isdecimal():
            index = int(number)
            # str(index) == number: "map/01" names no instance
            if index < len(self.instances) and str(index) == number:
                return self.instances[index]
        return None

    def assignment_of(self, worker_id: str) -> Optional[str]:
        """Instance id the worker is currently believed to run, or None."""
        return self._assignment.get(worker_id)
