"""The TaskMaster's locality index, pending set and id lookups as they
were before the per-job memory diets.

:class:`DequeTaskMaster` keeps, verbatim, the bodies the slimmed
:class:`~repro.jobs.taskmaster.TaskMaster` replaced: the per-machine
``deque`` locality index (``set_locality`` copying each instance's
preferred machines into a fresh ``set``, ``_pop_local`` taking with
``popleft``, ``_requeue`` appending), the ``_by_id`` table of
``"task/index"`` strings, the ``_pending_set`` that the pending flags
replaced (``_pop_global``, ``on_failed``, ``restore_finished``,
``adopt_attempt`` and ``pending_count`` as they read and wrote it), and
the global ``_pending`` deque of every index, made in ``__init__``, that
the cursor over untouched indices replaced.
Everything else is inherited, so the only difference
``test_taskmaster_locality_differential.py`` can see is the one the
optimisations made.  Do not "tidy" the copied bodies; their value is that
they are the old code.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.jobs.instance import Instance, InstanceState
from repro.jobs.taskmaster import FailureResult, TaskMaster


class DequeTaskMaster(TaskMaster):
    """TaskMaster with the deque locality index and the ``_by_id`` table."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._by_id: Dict[str, Instance] = {
            i.instance_id: i for i in self.instances
        }
        self._pending = deque(range(len(self.instances)))
        self._pending_set: Set[int] = set(self._pending)

    def set_locality(self, preferred: Dict[int, Set[str]]) -> None:
        """Record preferred machines per instance index and build the index."""
        for index, machines in preferred.items():
            if 0 <= index < len(self.instances):
                self.instances[index].preferred_machines = set(machines)
        self._locality_index = {}
        for index, instance in enumerate(self.instances):
            for machine in instance.preferred_machines:
                self._locality_index.setdefault(machine, deque()).append(index)

    def _pop_local(self, machine: str, worker_id: str) -> Optional[int]:
        queue = self._locality_index.get(machine)
        if not queue:
            return None
        while queue:
            index = queue.popleft()
            if index in self._pending_set and self._allowed(index, machine):
                self._pending_set.discard(index)
                return index
        return None

    def _requeue(self, index: int) -> None:
        instance = self.instances[index]
        self._moved(instance.state, InstanceState.WAITING)
        instance.state = InstanceState.WAITING
        if index not in self._pending_set:
            self._pending_set.add(index)
            self._pending.append(index)
            for machine in instance.preferred_machines:
                if machine not in self.blacklist.task_avoids(self.spec.name):
                    self._locality_index.setdefault(machine, deque()).append(index)

    # the ``_by_id`` lookups: ``.get`` in on_completed / on_failed,
    # indexing in release_worker / adopt_attempt / instance
    def _find(self, instance_id: str) -> Optional[Instance]:
        return self._by_id.get(instance_id)

    def instance(self, instance_id: str) -> Instance:
        """Look up an instance by id."""
        return self._by_id[instance_id]

    # the pending set, as it was read and written before the flags
    def _pop_global(self, machine: str, worker_id: str) -> Optional[int]:
        scanned = 0
        limit = len(self._pending)
        while self._pending and scanned < limit:
            index = self._pending.popleft()
            if index not in self._pending_set:
                continue  # stale entry (taken via locality index)
            if not self._allowed(index, machine):
                self._pending.append(index)
                scanned += 1
                continue
            self._pending_set.discard(index)
            return index
        return None

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
            self._pending_set.discard(instance.index)
            return FailureResult(terminal=True, requeued=False,
                                 escalations=escalations)
        self._moved(before, instance.state)
        if not instance.running_attempts:
            self._requeue(instance.index)
        return FailureResult(terminal=False, requeued=True,
                             escalations=escalations)

    def restore_finished(self, index: int, started_at: Optional[float],
                         finished_at: Optional[float]) -> None:
        """Mark an instance finished without a worker attempt: its result
        is durable (the JobMaster snapshot recorded it)."""
        instance = self.instances[index]
        self._moved(instance.state, InstanceState.FINISHED)
        instance.state = InstanceState.FINISHED
        instance.started_at = started_at
        instance.finished_at = finished_at
        self._pending_set.discard(index)

    def adopt_attempt(self, worker_id: str, instance_id: str, machine: str,
                      started_at: float) -> bool:
        """Re-attach an attempt that kept running while the JobMaster was
        down, so its completion lands; False if the instance has already
        finished."""
        instance = self.instance(instance_id)
        if instance.state == InstanceState.FINISHED:
            return False
        self._pending_set.discard(instance.index)
        before = instance.state
        instance.start_attempt(worker_id, machine, started_at)
        self._moved(before, instance.state)
        self._assignment[worker_id] = instance_id
        return True

    @property
    def pending_count(self) -> int:
        return len(self._pending_set)
