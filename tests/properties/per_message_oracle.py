"""The message path and job plane as they were before the message-path diet.

Each class overrides the optimised code with the bodies it had at the
commit before it (7b5353f), kept verbatim:

- :class:`PlanDelaysBus` — ``MessageBus.send`` through ``plan_delays`` →
  ``_edge`` → ``_one_delay`` → ``_draw`` → ``_mix64`` and one
  ``loop.call_after`` per delivery; ``_deliver`` through ``resolve``; an
  un-memoised ``hash_str``;
- :class:`LadderAgent`, :class:`LadderJobMaster` and :class:`LadderWorker`
  — the ``isinstance`` ladders of ``FuxiAgent.handle_message``,
  ``ApplicationMaster.handle_message``, ``DagJobMaster.handle_app_message``
  and ``TaskWorker.handle_message``;
- :class:`LadderJobMaster` — ``DagJobMaster._housekeeping`` walking every
  worker four times a tick;
- :class:`ScanningTaskMaster` — ``TaskMaster``'s counts and the backup
  gate, each a scan over the instances.

Slow and obvious: the oracle ``test_message_path_differential.py`` drives
the optimised path against.  Do not "tidy" the copied bodies; their value
is that they are the old code.  Adaptations, all forced by signatures the
new code changed: the ladders pass ``sender`` to the handlers that now take
it (``_handle_worker_list_reply``, ``_on_worker_ready``,
``_on_instance_completed``, ``_on_instance_failed``, ``_on_status_report``,
``TaskWorker._execute``), and the worker ladder calls ``_cancel`` where the
old body was inline.  The copied ``_housekeeping`` writes ``info.state``
directly, so the oracle's idle counts drift; nothing on the oracle side
reads them.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator, List, Optional

import repro._runtime as runtime
import repro.jobs.jobmaster as jobmaster
from repro.cluster.network import _EPS_QUANTUM, _M64, _TO_UNIT, MessageBus
from repro.cluster.network import NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent
from repro.core.units import UnitKey
from repro.jobs import worker as wmsg
from repro.jobs.instance import Instance, InstanceState
from repro.jobs.jobmaster import DagJobMaster
from repro.jobs.taskmaster import TaskMaster
from repro.jobs.worker import TaskWorker


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a strong, cheap 64-bit bijective hash."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


def _draw(base: int, slot: int) -> float:
    """The slot-th uniform [0,1) draw of one message's randomness."""
    return (_mix64(base ^ slot) >> 11) * _TO_UNIT


def hash_str(text: str) -> int:
    """Process-stable 64-bit hash of a string (``hash()`` is salted)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = (acc ^ byte) * 0x100000001B3 & _M64
    return acc


class PlanDelaysBus(MessageBus):
    """MessageBus with the eight-frame send."""

    def _edge(self, sender: str, dest: str) -> list:
        state = self._edges.get((sender, dest))
        if state is None:
            key = _mix64(self._net_seed
                         ^ _mix64(hash_str(sender) ^ _mix64(hash_str(dest))))
            state = [key, ((key & 0x3FFFFF) + 1) * _EPS_QUANTUM, 0]
            self._edges[(sender, dest)] = state
        return state

    def plan_delays(self, sender: str, dest: str) -> Optional[List[float]]:
        """Delivery delays for the next message on this edge.

        Returns ``None`` when the message is dropped, otherwise one delay
        per delivery (two entries when the transport duplicates).  Consumes
        exactly one edge-counter slot; the result is a pure function of
        ``(seed, sender, dest, message_index, config)``.
        """
        state = self._edge(sender, dest)
        key, epsilon, index = state
        state[2] = index + 1
        base = key ^ (index << 3)
        config = self.config
        if config.drop_prob and _draw(base, 0) < config.drop_prob:
            return None
        delays = [self._one_delay(config, base, epsilon, 2)]
        if config.duplicate_prob and _draw(base, 1) < config.duplicate_prob:
            delays.append(self._one_delay(config, base, epsilon, 5))
        return delays

    def _one_delay(self, config: NetworkConfig, base: int, epsilon: float,
                   slot: int) -> float:
        delay = config.latency + epsilon
        if config.jitter:
            delay += _draw(base, slot) * config.jitter
        if (config.reorder_prob
                and _draw(base, slot + 1) < config.reorder_prob):
            delay += _draw(base, slot + 2) * config.reorder_jitter
        return delay

    def send(self, sender: str, dest: str, message: Any) -> None:
        self.messages_sent += 1
        delays = self.plan_delays(sender, dest)
        if delays is None:
            self.messages_dropped += 1
            return
        if len(delays) > 1:
            self.messages_duplicated += 1
        for delay in delays:
            # recycle: delivery events are fire-and-forget — nothing retains
            # the handle, so the loop can reuse the Event object.
            self.loop.call_after(delay, self._deliver, sender, dest, message,
                                 recycle=True)

    def _deliver(self, sender: str, dest: str, message: Any) -> None:
        actor = self._actors.get(self.resolve(dest))
        if actor is None or not actor.alive:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        actor.deliver(sender, message)


class LadderAgent(FuxiAgent):
    """FuxiAgent with the isinstance ladder."""

    def handle_message(self, sender: str, message) -> None:
        if isinstance(message, msg.Envelope):
            self.hub.on_envelope(sender, message.inner, self._receiver_factory)
        elif isinstance(message, msg.Ack):
            self.hub.on_ack(message)
        elif isinstance(message, msg.WorkPlan):
            self._handle_work_plan(sender, message)
        elif isinstance(message, msg.StopWorker):
            self._handle_stop_worker(sender, message)
        elif isinstance(message, msg.WorkerListReply):
            self._handle_worker_list_reply(sender, message)
        elif isinstance(message, msg.ResyncRequest):
            self._send_full_state()
        elif isinstance(message, msg.LaunchAppMaster):
            self._handle_launch_app_master(sender, message)


class LadderWorker(TaskWorker):
    """TaskWorker with the isinstance ladder."""

    def handle_message(self, sender: str, message) -> None:
        if isinstance(message, wmsg.ExecuteInstance):
            self._execute(sender, message)
        elif isinstance(message, wmsg.CancelInstance):
            self._cancel(sender, message)


class ScanningTaskMaster(TaskMaster):
    """TaskMaster whose counts scan the instances."""

    def backup_candidates(self, now: float) -> List[Instance]:
        """Instances the §4.3.2 policy wants duplicated right now."""
        return [d.instance
                for d in self.backup_policy.candidates(self.instances, now)]

    @property
    def finished_count(self) -> int:
        return sum(1 for i in self.instances
                   if i.state == InstanceState.FINISHED)

    @property
    def failed_count(self) -> int:
        return sum(1 for i in self.instances if i.state == InstanceState.FAILED)

    @property
    def running_count(self) -> int:
        return sum(1 for i in self.instances
                   if i.state == InstanceState.RUNNING)

    def is_complete(self) -> bool:
        """True when every instance has finished."""
        return self.finished_count == len(self.instances)


class LadderJobMaster(DagJobMaster):
    """DagJobMaster with the two ladders and the scanning housekeeping."""

    # ApplicationMaster.handle_message
    def handle_message(self, sender: str, message) -> None:
        if isinstance(message, msg.Envelope):
            self.hub.on_envelope(sender, message.inner, self._receiver_factory)
        elif isinstance(message, msg.Ack):
            self.hub.on_ack(message)
        elif isinstance(message, msg.WorkerStarted):
            self.on_worker_started(message.worker_id, message.machine)
        elif isinstance(message, (msg.WorkerLaunchFailed, msg.WorkerExited)):
            reason = getattr(message, "reason", "exited")
            if reason != "stopped":
                self.on_worker_failed(message.worker_id, message.machine, reason)
            else:
                self.forget_worker(message.worker_id)
        elif isinstance(message, msg.WorkerListRequest):
            self._handle_worker_list_request(sender, message)
        elif isinstance(message, (msg.ResyncRequest, msg.MasterHello)):
            self._resync_with_master()
        else:
            self.handle_app_message(sender, message)

    # DagJobMaster.handle_app_message
    def handle_app_message(self, sender: str, message) -> None:
        if isinstance(message, wmsg.WorkerReady):
            self._on_worker_ready(sender, message)
        elif isinstance(message, wmsg.InstanceCompleted):
            self._on_instance_completed(sender, message)
        elif isinstance(message, wmsg.InstanceFailed):
            self._on_instance_failed(sender, message)
        elif isinstance(message, wmsg.WorkerStatusReport):
            self._on_status_report(sender, message)

    def _housekeeping(self) -> None:
        if self.finished:
            return
        now = self.loop.now
        # A work plan that never came up (lost in transit or agent busy):
        # re-send it; the agent handles duplicates idempotently.
        for info in list(self._workers.values()):
            if (info.state == "starting"
                    and now - max(info.planned_at, info.last_seen)
                    > self.WORKER_SILENCE_TIMEOUT
                    and info.worker_id in self.work_plans):
                info.last_seen = now
                self.send(f"agent:{info.machine}",
                          self.work_plans[info.worker_id])
        # Dead-worker detection: a worker that stopped reporting is treated
        # as failed and its container replaced (paper §4.3.2, job level).
        for info in list(self._workers.values()):
            if (info.state in ("idle", "busy")
                    and now - info.last_seen > self.WORKER_SILENCE_TIMEOUT):
                self.tracer.event("job.container_replace", job=self.app_id,
                                  task=info.task, machine=info.machine)
                self.on_worker_failed(info.worker_id, info.machine, "crashed")
        # Self-healing dispatch: a dropped WorkerReady must not idle a
        # container forever while instances wait.
        for info in list(self._workers.values()):
            if info.state == "idle":
                self._dispatch_work(info)
        # Holdings/worker reconciliation: an agent can kill a worker as
        # "capacity-revoked" on a transient allocation dip (our return
        # delta landing after the master's re-grant) with no master-side
        # revocation behind it, so no on_revoked ever replaces the worker.
        # A held container with no worker attached is invisible to
        # dispatch: re-plan into it (or hand it back if the task is done).
        planned = {}
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
            if task in self.finished_tasks:
                continue
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
                        info.state = "busy"
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


@contextlib.contextmanager
def per_message_plane() -> Iterator[None]:
    """Clusters built inside the block run every class above: the bus, the
    agents, the job masters (and their task masters) and the workers."""
    swaps = [(runtime, "MessageBus", PlanDelaysBus),
             (runtime, "FuxiAgent", LadderAgent),
             (runtime, "DagJobMaster", LadderJobMaster),
             (runtime, "TaskWorker", LadderWorker),
             (jobmaster, "TaskMaster", ScanningTaskMaster)]
    originals = [(module, name, getattr(module, name))
                 for module, name, _ in swaps]
    for module, name, oracle in swaps:
        setattr(module, name, oracle)
    try:
        yield
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
