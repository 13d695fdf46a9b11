"""The TaskMaster's locality index and id lookups as they were before the
per-job memory diet.

:class:`DequeTaskMaster` keeps, verbatim, the bodies the slimmed
:class:`~repro.jobs.taskmaster.TaskMaster` replaced: the per-machine
``deque`` locality index (``set_locality`` copying each instance's
preferred machines into a fresh ``set``, ``_pop_local`` taking with
``popleft``, ``_requeue`` appending) and the ``_by_id`` table of
``"task/index"`` strings.  Everything else is inherited, so the only
difference ``test_taskmaster_locality_differential.py`` can see is the one
the optimisation made.  Do not "tidy" the copied bodies; their value is
that they are the old code.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.jobs.instance import Instance, InstanceState
from repro.jobs.taskmaster import TaskMaster


class DequeTaskMaster(TaskMaster):
    """TaskMaster with the deque locality index and the ``_by_id`` table."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._by_id: Dict[str, Instance] = {
            i.instance_id: i for i in self.instances
        }

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
