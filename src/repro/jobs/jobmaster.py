"""DagJobMaster: the two-level hierarchical job master (paper §4, Figure 8).

The JobMaster is the application master of a DAG job.  It:

- parses the Figure-6 JSON description and schedules tasks in topological
  order ("each time only the tasks whose input data are ready can be
  scheduled");
- negotiates containers with FuxiMaster per task (one ScheduleUnit per
  task, with machine hints derived from input block placement);
- spawns one :class:`~repro.jobs.taskmaster.TaskMaster` per running task for
  fine-grained instance scheduling, and **reuses containers** across
  instances (the Fuxi-vs-YARN difference of §3.2.3);
- runs the job-level fault tolerance: retry with the multi-level blacklist,
  escalation reports to FuxiMaster, backup instances for long tails, and
  container replacement after revocations;
- exports a lightweight snapshot on every instance status change, from
  which a restarted JobMaster recovers without disturbing running workers
  (§4.3.1 "JobMaster Failover").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import messages as msg
from repro.core.appmaster import ApplicationMaster, AppMasterConfig
from repro.core.blacklist import BlacklistConfig, JobBlacklist
from repro.core.units import UnitKey
from repro.jobs import worker as wmsg
from repro.jobs.dag import ready_tasks, validate_dag
from repro.jobs.instance import InstanceState
from repro.jobs.spec import JobSpec, parse_job_description
from repro.jobs.taskmaster import TaskMaster
from repro.obs.tracer import NULL_TRACER
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom


@dataclass
class JobResult:
    """Final report of one job run."""

    job_id: str
    success: bool
    submitted_at: float
    started_at: float
    finished_at: float
    instances_finished: int = 0
    instances_failed: int = 0
    backups_launched: int = 0
    worker_start_overheads: List[float] = field(default_factory=list)
    instance_overheads: List[float] = field(default_factory=list)
    failure_reason: str = ""

    @property
    def makespan(self) -> float:
        return self.finished_at - self.started_at

    @property
    def jobmaster_start_overhead(self) -> float:
        return self.started_at - self.submitted_at


@dataclass(slots=True)
class _WorkerInfo:
    worker_id: str
    task: str
    machine: str
    unit_key: UnitKey
    state: str = "starting"          # starting | idle | busy | gone
    planned_at: float = 0.0
    last_seen: float = 0.0
    dispatched_at: float = 0.0       # when we last sent ExecuteInstance


class DagJobMaster(ApplicationMaster):
    """Application master executing one DAG job."""

    DEFAULT_WORKER_CAP = 50
    #: a worker silent longer than this is declared dead ("JobMaster will
    #: estimate the machine health based on the worker statuses", §4.3.2)
    WORKER_SILENCE_TIMEOUT = 6.0

    def __init__(self, loop: EventLoop, bus, app_id: str, description: dict,
                 services: Any = None, config: Optional[AppMasterConfig] = None,
                 blacklist_config: Optional[BlacklistConfig] = None):
        self.description = description
        self.services = services
        tracer = getattr(services, "tracer", None)
        # explicit None check: an empty Tracer is falsy (len() == 0)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.spec: JobSpec = parse_job_description(description, name=app_id)
        validate_dag(self.spec)
        self.blacklist = JobBlacklist(blacklist_config)
        self._rng = self._make_rng(app_id)
        self.submitted_at = float(description.get("submitted_at", loop.now))
        self.started_at = loop.now
        self.result: Optional[JobResult] = None
        self.finished_tasks: Set[str] = set()
        self.started_tasks: Set[str] = set()
        self.task_masters: Dict[str, TaskMaster] = {}
        self._slot_of_task: Dict[str, int] = {}
        self._task_of_slot: Dict[int, str] = {}
        self._forget_workers()
        self._worker_seq = 0
        self._launch_failures: Dict[str, int] = {}
        self._worker_start_overheads: List[float] = []
        self._instance_overheads: List[float] = []
        self._instances_finished = 0
        super().__init__(loop, bus, app_id, config)
        self._snapshot_init()
        self.set_periodic_timer("housekeeping", 1.0, self._housekeeping)
        self.loop.call_after(0.0, self._schedule_ready_tasks)

    def _make_rng(self, app_id: str):
        seed_root = getattr(self.services, "rng", None) or SplitRandom(0)
        return seed_root.stream(f"job:{app_id}")

    # ------------------------------------------------------------------ #
    # task lifecycle
    # ------------------------------------------------------------------ #

    def _schedule_ready_tasks(self) -> None:
        if self.finished:
            return
        for task in ready_tasks(self.spec, self.finished_tasks,
                                self.started_tasks):
            self._start_task(task)
        if not self.started_tasks and not self.spec.tasks:
            self._complete_job(success=True)

    def _start_task(self, task: str) -> None:
        task_spec = self.spec.tasks[task]
        slot_id = self._slot_of_task.get(task)
        if slot_id is None:
            slot_id = len(self._slot_of_task) + 1
            self._slot_of_task[task] = slot_id
            self._task_of_slot[slot_id] = task
        self.started_tasks.add(task)
        target = task_spec.worker_target(self.DEFAULT_WORKER_CAP)
        unit = self.define_unit(slot_id, task_spec.resources,
                                priority=task_spec.priority, max_count=target)
        durations = [
            max(0.05, self._rng.lognormvariate(0.0, task_spec.duration_sigma)
                * task_spec.duration)
            for _ in range(min(task_spec.instances, 4096))
        ]
        master = TaskMaster(task_spec, self.blacklist, durations=durations)
        self.task_masters[task] = master
        machine_hints = self._locality_for(task, master, target)
        self.request(unit.key, target, machine_hints=machine_hints,
                     avoid=self.blacklist.task_avoids(task))
        self._snapshot_task_started(task)

    def _locality_for(self, task: str, master: TaskMaster,
                      target: int) -> Dict[str, int]:
        """Machine hints from input block placement (Pangu locality)."""
        blockstore = getattr(self.services, "blockstore", None)
        if blockstore is None:
            return {}
        preferred: Dict[int, Set[str]] = {}
        hints: Dict[str, int] = {}
        index = 0
        for path in self.spec.inputs_of(task):
            if not blockstore.exists(path):
                continue
            for block in blockstore.blocks(path):
                if index >= master.spec.instances:
                    break
                preferred[index] = set(block.replicas)
                primary = block.replicas[0]
                hints[primary] = hints.get(primary, 0) + 1
                index += 1
        master.set_locality(preferred)
        # Hints are preferences within the worker target, never beyond it.
        total = 0
        capped: Dict[str, int] = {}
        for machine in sorted(hints, key=lambda m: (-hints[m], m)):
            if total >= target:
                break
            take = min(hints[machine], target - total)
            capped[machine] = take
            total += take
        return capped

    def _finish_task(self, task: str) -> None:
        self.finished_tasks.add(task)
        unit_key = UnitKey(self.app_id, self._slot_of_task[task])
        outstanding = self.outstanding(unit_key)
        if outstanding > 0:
            self.request(unit_key, -outstanding)
        for info in [w for w in self._workers.values() if w.task == task]:
            self._retire_worker(info)
        self._snapshot_task_finished(task)
        if self.finished_tasks == set(self.spec.tasks):
            self._complete_job(success=True)
        else:
            self._schedule_ready_tasks()

    def _retire_worker(self, info: _WorkerInfo) -> None:
        if info.state == "gone":
            return
        self._set_state(info, "gone")
        self.stop_worker(info.worker_id)
        held = self.held_count(info.unit_key, info.machine)
        if held > 0:
            self.return_grant(info.unit_key, info.machine, 1)
        self._drop_worker(info)
        self.forget_worker(info.worker_id)

    # ------------------------------------------------------------------ #
    # the worker roster and what _housekeeping tests before walking it
    # ------------------------------------------------------------------ #

    def _forget_workers(self) -> None:
        self._workers: Dict[str, _WorkerInfo] = {}
        #: task -> how many of its workers are idle (absent when none)
        self._idle: Dict[str, int] = {}
        #: heap of (last_seen, worker_id): see _silence_overdue
        self._silence: List[Tuple[float, str]] = []
        #: bumped whenever a worker joins or leaves _workers
        self._roster_version = 0
        #: (holdings_version, _roster_version) the reconciliation pass
        #: last ran at
        self._reconciled: Tuple[int, int] = (-1, -1)

    def _add_worker(self, info: _WorkerInfo) -> None:
        self._workers[info.worker_id] = info
        self._roster_version += 1
        heappush(self._silence, (info.last_seen, info.worker_id))
        if info.state == "idle":
            self._idle[info.task] = self._idle.get(info.task, 0) + 1

    def _drop_worker(self, info: _WorkerInfo) -> None:
        """Remove a worker already moved to "gone"."""
        self._workers.pop(info.worker_id, None)
        self._roster_version += 1

    def _set_state(self, info: _WorkerInfo, state: str) -> None:
        """Move a worker to ``state``, keeping the per-task idle counts."""
        idle = self._idle
        if info.state == "idle":
            left = idle[info.task] - 1
            if left:
                idle[info.task] = left
            else:
                del idle[info.task]
        if state == "idle":
            idle[info.task] = idle.get(info.task, 0) + 1
        info.state = state

    def _silence_overdue(self, now: float) -> bool:
        """Whether some worker's ``last_seen`` lies more than
        WORKER_SILENCE_TIMEOUT behind ``now``: the only case in which the
        re-send and dead-worker passes of :meth:`_housekeeping` act (a
        starting worker's ``planned_at`` never exceeds its ``last_seen``).

        ``_silence`` holds at least one ``(last_seen, worker_id)`` entry
        per worker, each at most the worker's current stamp — stamps only
        grow, and an entry is refreshed only when it comes due — so its
        head bounds every stamp from below, and ``now - stamp`` is largest
        there.  A due head is refreshed from its worker before it is
        believed.
        """
        heap = self._silence
        workers = self._workers
        timeout = self.WORKER_SILENCE_TIMEOUT
        while heap and now - heap[0][0] > timeout:
            seen, worker_id = heap[0]
            info = workers.get(worker_id)
            if info is None:
                heappop(heap)
            elif info.last_seen != seen:
                heapreplace(heap, (info.last_seen, worker_id))
            else:
                return True
        return False

    def _complete_job(self, success: bool, reason: str = "") -> None:
        if self.result is not None:
            return
        backups = sum(tm.backups_launched for tm in self.task_masters.values())
        failed = sum(tm.failed_count for tm in self.task_masters.values())
        self.result = JobResult(
            job_id=self.app_id,
            success=success,
            submitted_at=self.submitted_at,
            started_at=self.started_at,
            finished_at=self.loop.now,
            instances_finished=self._instances_finished,
            instances_failed=failed,
            backups_launched=backups,
            worker_start_overheads=list(self._worker_start_overheads),
            instance_overheads=list(self._instance_overheads),
            failure_reason=reason,
        )
        self._write_outputs()
        notify = getattr(self.services, "job_completed", None)
        if notify is not None:
            notify(self.app_id, self.result)
        self.exit_application()

    def _write_outputs(self) -> None:
        blockstore = getattr(self.services, "blockstore", None)
        if blockstore is None or self.result is None or not self.result.success:
            return
        for task, path in self.spec.output_files:
            if not blockstore.exists(path):
                size = max(1.0, self.spec.tasks[task].instances * 1.0)
                blockstore.create_file(path, size_mb=size)

    # ------------------------------------------------------------------ #
    # container flow (grants <-> work plans <-> workers)
    # ------------------------------------------------------------------ #

    def on_granted(self, unit_key: UnitKey, machine: str, count: int) -> None:
        task = self._task_of_slot.get(unit_key.slot_id)
        if task is None or task in self.finished_tasks:
            # Late grant for a finished task: hand it straight back.
            if self.held_count(unit_key, machine) >= count:
                self.return_grant(unit_key, machine, count)
            return
        for _ in range(count):
            self._worker_seq += 1
            worker_id = f"{self.app_id}.{task}.{self._worker_seq}"
            info = _WorkerInfo(worker_id, task, machine, unit_key,
                               planned_at=self.loop.now,
                               last_seen=self.loop.now)
            self._add_worker(info)
            self.send_work_plan(worker_id, unit_key, machine,
                                spec={"task": task})

    def on_revoked(self, unit_key: UnitKey, machine: str, count: int) -> None:
        """Containers revoked (node down or preemption): replace them."""
        task = self._task_of_slot.get(unit_key.slot_id)
        victims = [w for w in self._workers.values()
                   if w.unit_key == unit_key and w.machine == machine
                   and w.state != "gone"]
        for info in victims[:count]:
            self._worker_lost(info, blame_machine=False)
        if task is not None and task not in self.finished_tasks:
            master = self.task_masters.get(task)
            if master is not None and not master.is_complete():
                self.request(unit_key, count,
                             avoid=self.blacklist.task_avoids(task))

    def on_worker_started(self, worker_id: str, machine: str) -> None:
        info = self._workers.get(worker_id)
        if info is None:
            return
        info.last_seen = self.loop.now

    def on_worker_failed(self, worker_id: str, machine: str, reason: str) -> None:
        info = self._workers.get(worker_id)
        if info is None:
            return
        if reason in ("capacity-revoked", "not-expected"):
            # Not the machine's fault: the container went away (preemption /
            # reconciliation); on_revoked drives the replacement request.
            self._worker_lost(info, blame_machine=False)
            return
        self._launch_failures[machine] = self._launch_failures.get(machine, 0) + 1
        blame = reason in ("launch-failure", "crashed")
        self._worker_lost(info, blame_machine=blame)
        task = info.task
        if task in self.finished_tasks:
            return
        master = self.task_masters.get(task)
        if master is None or master.is_complete():
            return
        # The container on the bad machine is useless: return it and ask for
        # a replacement elsewhere.
        held = self.held_count(info.unit_key, machine)
        if held > 0:
            self.return_grant(info.unit_key, machine, 1)
        if self._launch_failures.get(machine, 0) >= 2:
            if self.blacklist.mark_job_bad(machine):
                self._report_bad_machine(machine)
            self.send_avoid(info.unit_key, [machine])
        self.request(info.unit_key, 1,
                     avoid=self.blacklist.task_avoids(task))

    def _worker_lost(self, info: _WorkerInfo, blame_machine: bool) -> None:
        self._set_state(info, "gone")
        master = self.task_masters.get(info.task)
        if master is not None:
            instance_id = master.assignment_of(info.worker_id)
            if instance_id is not None and blame_machine:
                result = master.on_failed(info.worker_id, instance_id,
                                          info.machine, self.loop.now)
                self._handle_escalations(info.task, result.escalations,
                                         info.machine)
                self._snapshot_instance(info.task, instance_id)
            else:
                released = master.release_worker(info.worker_id, self.loop.now)
                if released is not None:
                    self._snapshot_instance(info.task, released)
        self._drop_worker(info)
        self.forget_worker(info.worker_id)

    # ------------------------------------------------------------------ #
    # worker messages (instance execution), routed here by _HANDLERS
    # ------------------------------------------------------------------ #

    def _on_worker_ready(self, sender: str, message: wmsg.WorkerReady) -> None:
        info = self._workers.get(message.worker_id)
        if info is None:
            # A worker we no longer track (e.g. recovered master): stop it.
            self.send(f"agent:{message.machine}",
                      msg.StopWorker(self.app_id, message.worker_id))
            return
        if info.state == "starting":
            self._worker_start_overheads.append(self.loop.now - info.planned_at)
        info.last_seen = self.loop.now
        self._worker_reports_idle(info, message.last_completed)

    def _worker_reports_idle(self, info: _WorkerInfo,
                             last_completed: Optional[str]) -> None:
        """The worker says it is idle; square that with our books.

        Our books may still carry an assignment — either the dispatch has
        not reached the worker yet (leave the 'busy' state alone; the guard
        inside the reconciler protects live work) or a completion/dispatch
        was lost (reconcile).  Only flip to idle once no assignment
        remains.
        """
        master = self.task_masters.get(info.task)
        assigned = (master.assignment_of(info.worker_id)
                    if master is not None else None)
        if assigned is not None:
            self._reconcile_idle_worker(info, last_completed)
            assigned = master.assignment_of(info.worker_id)
        if assigned is None and info.state in ("starting", "idle", "busy"):
            self._set_state(info, "idle")
            self._dispatch_work(info)

    def _reconcile_idle_worker(self, info: _WorkerInfo,
                               last_completed: Optional[str]) -> None:
        """An idle worker still has an assignment in our books: either its
        completion message was lost (reconcile it) or the attempt evaporated
        (requeue the instance)."""
        master = self.task_masters.get(info.task)
        if master is None:
            return
        assigned = master.assignment_of(info.worker_id)
        if assigned is None:
            return
        if self.loop.now - info.dispatched_at <= self.WORKER_SILENCE_TIMEOUT:
            # A fresh dispatch may simply not have reached the worker when
            # it sent this (reordering); don't undo live work.
            return
        if last_completed == assigned:
            self._record_completion(info, master, assigned,
                                    worker_elapsed=None)
        else:
            # The dispatch itself was lost, or the attempt evaporated:
            # requeue and re-dispatch.
            released = master.release_worker(info.worker_id, self.loop.now)
            if released is not None:
                self._snapshot_instance(info.task, released)

    def _dispatch_work(self, info: _WorkerInfo) -> None:
        master = self.task_masters.get(info.task)
        if master is None or info.state != "idle":
            return
        instance = master.next_assignment(info.worker_id, info.machine,
                                          self.loop.now)
        if instance is not None:
            self._set_state(info, "busy")
            info.dispatched_at = self.loop.now
            self.send(f"worker:{info.worker_id}", wmsg.ExecuteInstance(
                instance.instance_id, instance.duration, {}))
            self._snapshot_instance(info.task, instance.instance_id)
            return
        # Nothing pending.  If every instance is finished the task is done;
        # if work is merely in flight elsewhere, keep the container warm for
        # retries/backups (container reuse).
        if master.is_complete():
            self._finish_task(info.task)

    def _on_instance_completed(self, sender: str,
                               message: wmsg.InstanceCompleted) -> None:
        info = self._workers.get(message.worker_id)
        if info is None:
            return
        master = self.task_masters.get(info.task)
        if master is None:
            return
        self._set_state(info, "idle")
        info.last_seen = self.loop.now
        self._record_completion(info, master, message.instance_id,
                                worker_elapsed=message.elapsed)
        # The worker also sends WorkerReady, but the transport may reorder
        # it ahead of this completion — dispatch here as well (idempotent).
        self._dispatch_work(info)

    def _record_completion(self, info: _WorkerInfo, master: TaskMaster,
                           instance_id: str,
                           worker_elapsed: Optional[float]) -> None:
        result = master.on_completed(info.worker_id, instance_id,
                                     self.loop.now)
        if not result.won:
            return
        self._instances_finished += 1
        instance = master.instance(instance_id)
        if instance.elapsed is not None and worker_elapsed is not None:
            self._instance_overheads.append(
                max(0.0, instance.elapsed - worker_elapsed))
        self._snapshot_instance(info.task, instance_id)
        for twin_worker in result.cancel_workers:
            self.send(f"worker:{twin_worker}",
                      wmsg.CancelInstance(instance_id))
            twin = self._workers.get(twin_worker)
            if twin is not None:
                self._set_state(twin, "idle")

    def _on_instance_failed(self, sender: str,
                            message: wmsg.InstanceFailed) -> None:
        info = self._workers.get(message.worker_id)
        if info is None:
            return
        if message.reason == "worker-busy":
            # Transport noise (duplicated dispatch): neither the instance
            # nor the machine did anything wrong.
            return
        master = self.task_masters.get(info.task)
        if master is None:
            return
        self._set_state(info, "idle")
        result = master.on_failed(message.worker_id, message.instance_id,
                                  message.machine, self.loop.now)
        self._snapshot_instance(info.task, message.instance_id)
        self._handle_escalations(info.task, result.escalations, message.machine)
        if result.terminal:
            self.tracer.event("job.instance_terminal", job=self.app_id,
                              task=info.task, instance=message.instance_id,
                              machine=message.machine)
            self._complete_job(success=False,
                               reason=f"instance {message.instance_id} "
                                      f"exhausted attempts")
            return
        self.tracer.event("job.instance_retry", job=self.app_id,
                          task=info.task, instance=message.instance_id,
                          machine=message.machine, reason=message.reason)
        self._dispatch_work(info)

    def _handle_escalations(self, task: str, escalations: List[str],
                            machine: str) -> None:
        if "task" in escalations:
            unit_key = UnitKey(self.app_id, self._slot_of_task[task])
            self.send_avoid(unit_key, [machine])
        if "job" in escalations:
            self._report_bad_machine(machine)

    def _report_bad_machine(self, machine: str) -> None:
        self.send(self.config.master_address,
                  msg.BlacklistReport(self.app_id, machine))
        # Machines bad for the whole job are avoided by every task's unit.
        for task, slot_id in self._slot_of_task.items():
            if task not in self.finished_tasks:
                self.send_avoid(UnitKey(self.app_id, slot_id), [machine])

    def _on_status_report(self, sender: str,
                          message: wmsg.WorkerStatusReport) -> None:
        info = self._workers.get(message.worker_id)
        if info is None:
            # Unknown worker still running (JobMaster failover): adopt it.
            self._adopt_worker(message)
            return
        info.last_seen = self.loop.now
        if message.instance_id is None and info.state in ("idle", "busy"):
            self._worker_reports_idle(info, message.last_completed)

    # ------------------------------------------------------------------ #
    # housekeeping: backups and stuck-worker checks
    # ------------------------------------------------------------------ #

    def _housekeeping(self) -> None:
        """The once-a-second checks.  Each pass first asks, in O(1),
        whether it can act this tick, and walks ``_workers`` (in insertion
        order, as it always did) only if it can."""
        if self.finished:
            return
        now = self.loop.now
        if self._silence_overdue(now):
            # A work plan that never came up (lost in transit or agent
            # busy): re-send it; the agent handles duplicates idempotently.
            for info in list(self._workers.values()):
                if (info.state == "starting"
                        and now - max(info.planned_at, info.last_seen)
                        > self.WORKER_SILENCE_TIMEOUT
                        and info.worker_id in self.work_plans):
                    info.last_seen = now
                    self.send(f"agent:{info.machine}",
                              self.work_plans[info.worker_id])
            # Dead-worker detection: a worker that stopped reporting is
            # treated as failed and its container replaced (paper §4.3.2,
            # job level).
            for info in list(self._workers.values()):
                if (info.state in ("idle", "busy")
                        and now - info.last_seen
                        > self.WORKER_SILENCE_TIMEOUT):
                    self.tracer.event("job.container_replace",
                                      job=self.app_id, task=info.task,
                                      machine=info.machine)
                    self.on_worker_failed(info.worker_id, info.machine,
                                          "crashed")
        if self._idle:
            # Self-healing dispatch: a dropped WorkerReady must not idle a
            # container forever while instances wait.
            for info in list(self._workers.values()):
                if info.state == "idle":
                    self._dispatch_work(info)
        books = (self.holdings_version, self._roster_version)
        if books != self._reconciled:
            # Nothing this pass reads has changed since it last ran.
            self._reconciled = books
            # Holdings/worker reconciliation: an agent can kill a worker as
            # "capacity-revoked" on a transient allocation dip (our return
            # delta landing after the master's re-grant) with no
            # master-side revocation behind it, so no on_revoked ever
            # replaces the worker.  A held container with no worker
            # attached is invisible to dispatch: re-plan into it (or hand
            # it back if the task is done).
            planned: Dict[Tuple[UnitKey, str], int] = {}
            for info in self._workers.values():
                if info.state != "gone":
                    slot = (info.unit_key, info.machine)
                    planned[slot] = planned.get(slot, 0) + 1
            for unit_key, machines in list(self.holdings.items()):
                for machine, held in list(machines.items()):
                    missing = held - planned.get((unit_key, machine), 0)
                    if missing > 0:
                        self.on_granted(unit_key, machine, missing)
        # Early container return (§2.2: "when a worker is no longer needed,
        # the application master ... returns the granted resource"): keep
        # one idle spare per task for retries/backups, release the rest.
        for task, master in list(self.task_masters.items()):
            if task in self.finished_tasks or self._idle.get(task, 0) < 2:
                continue  # (one idle worker is the spare)
            outstanding_work = master.pending_count + master.running_count
            idle = [
                w for w in self._workers.values()
                if w.task == task and w.state == "idle"
                # our books may lag a completion in flight: never retire a
                # worker the TaskMaster still considers busy, nor one that
                # only just went idle
                and master.assignment_of(w.worker_id) is None
                and now - max(w.dispatched_at, w.planned_at) > 3.0
            ]
            surplus = len(idle) - max(outstanding_work, 0) - 1
            for info in idle[:max(surplus, 0)]:
                self._retire_worker(info)
        for task, master in list(self.task_masters.items()):
            if task in self.finished_tasks:
                continue
            if master.is_complete():
                # Safety net against message-reordering stalls.
                self._finish_task(task)
                continue
            candidates = master.backup_candidates(now)
            if not candidates:
                continue
            idle = [w for w in self._workers.values()
                    if w.task == task and w.state == "idle"]
            for instance in candidates:
                placed = False
                for info in idle:
                    if master.start_backup(instance, info.worker_id,
                                           info.machine, now):
                        self.tracer.event("job.backup", job=self.app_id,
                                          task=task,
                                          instance=instance.instance_id,
                                          machine=info.machine)
                        self._set_state(info, "busy")
                        info.dispatched_at = now
                        idle.remove(info)
                        self.send(f"worker:{info.worker_id}",
                                  wmsg.ExecuteInstance(instance.instance_id,
                                                       instance.duration, {}))
                        placed = True
                        break
                if not placed:
                    # No idle container: ask for one more (bounded).
                    unit_key = UnitKey(self.app_id, self._slot_of_task[task])
                    if self.outstanding(unit_key) == 0:
                        self.request(unit_key, 1,
                                     avoid=self.blacklist.task_avoids(task))
                    break

    # ------------------------------------------------------------------ #
    # snapshots & failover (§4.3.1 "JobMaster Failover")
    # ------------------------------------------------------------------ #

    def _snapshot_store(self) -> Optional[dict]:
        store = getattr(self.services, "job_snapshots", None)
        if store is None:
            return None
        return store.setdefault(self.app_id, {
            "finished_tasks": [], "started_tasks": [], "instances": {},
            "submitted_at": self.submitted_at,
        })

    def _snapshot_init(self) -> None:
        snap = self._snapshot_store()
        if snap is not None and not snap["started_tasks"]:
            snap["submitted_at"] = self.submitted_at

    def _snapshot_task_started(self, task: str) -> None:
        snap = self._snapshot_store()
        if snap is not None and task not in snap["started_tasks"]:
            snap["started_tasks"].append(task)

    def _snapshot_task_finished(self, task: str) -> None:
        snap = self._snapshot_store()
        if snap is not None and task not in snap["finished_tasks"]:
            snap["finished_tasks"].append(task)

    def _snapshot_instance(self, task: str, instance_id: str) -> None:
        snap = self._snapshot_store()
        if snap is None:
            return
        master = self.task_masters.get(task)
        if master is None:
            return
        instance = master.instance(instance_id)
        snap["instances"][instance_id] = instance.snapshot()

    def recover_state(self) -> None:
        """Rebuild from the snapshot after an AM crash (base-class hook)."""
        self.spec = parse_job_description(self.description, name=self.app_id)
        self.blacklist = JobBlacklist()
        self.finished_tasks = set()
        self.started_tasks = set()
        self.task_masters = {}
        self._slot_of_task = {}
        self._task_of_slot = {}
        self._forget_workers()
        self.result = None
        self._instances_finished = 0   # recounted from the snapshot below
        store = getattr(self.services, "job_snapshots", None)
        snap = store.get(self.app_id) if store is not None else None
        if snap is not None:
            self.submitted_at = snap.get("submitted_at", self.submitted_at)
            self.finished_tasks = set(snap.get("finished_tasks", ()))
        self.set_periodic_timer("housekeeping", 1.0, self._housekeeping)
        for task in sorted(self.spec.tasks):
            if task in self.finished_tasks:
                # keep slot numbering stable across incarnations
                slot_id = len(self._slot_of_task) + 1
                self._slot_of_task[task] = slot_id
                self._task_of_slot[slot_id] = task
        for task in ready_tasks(self.spec, self.finished_tasks, set()):
            self._start_task(task)
            if snap is not None:
                self._restore_instances(task, snap)

    def _restore_instances(self, task: str, snap: dict) -> None:
        master = self.task_masters.get(task)
        if master is None:
            return
        for instance in master.instances:
            record = snap["instances"].get(instance.instance_id)
            if record and record["state"] == InstanceState.FINISHED.value:
                master.restore_finished(instance.index,
                                        record.get("started_at"),
                                        record.get("finished_at"))
                self._instances_finished += 1
        if master.is_complete():
            self._finish_task(task)

    def _adopt_worker(self, message: wmsg.WorkerStatusReport) -> None:
        """A worker from before our crash reports in: fold it back in.

        "During the absence of JobMaster process, all the workers are still
        running the instances without interruption."
        """
        worker_id = message.worker_id
        task = self._task_of_worker_id(worker_id)
        if task is None or task in self.finished_tasks:
            self.send(f"agent:{message.machine}",
                      msg.StopWorker(self.app_id, worker_id))
            return
        master = self.task_masters.get(task)
        if master is None:
            return
        unit_key = UnitKey(self.app_id, self._slot_of_task[task])
        info = _WorkerInfo(worker_id, task, message.machine, unit_key,
                           state="idle", planned_at=self.loop.now,
                           last_seen=self.loop.now)
        self._add_worker(info)
        self.worker_machines[worker_id] = message.machine
        self.work_plans[worker_id] = msg.WorkPlan(
            self.app_id, worker_id, unit_key,
            self.spec.tasks[task].resources, {"task": task})
        if message.instance_id is not None and master.adopt_attempt(
                worker_id, message.instance_id, message.machine,
                self.loop.now - message.running_for):
            # the running attempt is re-attached, so its completion lands
            self._set_state(info, "busy")
        if info.state == "idle":
            self._dispatch_work(info)

    def _task_of_worker_id(self, worker_id: str) -> Optional[str]:
        # worker ids look like "<app>.<task>.<seq>"
        parts = worker_id.rsplit(".", 2)
        if len(parts) != 3 or parts[0] != self.app_id:
            return None
        return parts[1] if parts[1] in self.spec.tasks else None

    # ------------------------------------------------------------------ #
    # monitoring
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, dict]:
        """Per-task progress, as the command-line tool would render it."""
        report = {}
        for task in sorted(self.spec.tasks):
            master = self.task_masters.get(task)
            if master is None:
                state = ("finished" if task in self.finished_tasks
                         else "not-started")
                report[task] = {"state": state}
            else:
                report[task] = {
                    "state": "finished" if master.is_complete() else "running",
                    "finished": master.finished_count,
                    "running": master.running_count,
                    "pending": master.pending_count,
                    "failed": master.failed_count,
                    "total": len(master.instances),
                }
        return report

    #: the base table plus the workers' messages, each straight to its
    #: handler (no second dispatch through handle_app_message)
    _HANDLERS = {
        **ApplicationMaster._HANDLERS,
        wmsg.WorkerReady: _on_worker_ready,
        wmsg.InstanceCompleted: _on_instance_completed,
        wmsg.InstanceFailed: _on_instance_failed,
        wmsg.WorkerStatusReport: _on_status_report,
    }
