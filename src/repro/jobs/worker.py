"""TaskWorker: the application worker process (paper §2.2, §4.2).

A worker runs inside one granted container on one machine.  It registers
itself to its application master, executes task *instances* the TaskMaster
assigns, reports progress periodically ("All TaskWorkers will periodically
report their status including execution progresses"), and — because Fuxi
separates containers from tasks — stays alive between instances so the
master can reuse it for the next instance without another scheduling round.

Execution is simulated: an instance occupies the worker for its duration
multiplied by the machine's ``slow_factor`` (the SlowMachine fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.machine import MachineState
from repro.core import messages as msg
from repro.sim.actor import Actor
from repro.sim.events import EventLoop


# ------------------------------------------------------------------ #
# worker <-> job master messages
# ------------------------------------------------------------------ #

@dataclass(frozen=True, slots=True)
class WorkerReady:
    """Worker -> JobMaster: registered and idle, give me an instance.

    ``last_completed`` lets the master reconcile a completion whose
    InstanceCompleted message was lost in transit.
    """

    worker_id: str
    machine: str
    last_completed: Optional[str] = None


@dataclass(frozen=True, slots=True)
class ExecuteInstance:
    """JobMaster -> worker: run one task instance."""

    instance_id: str
    duration: float
    payload: Optional[dict] = None


@dataclass(frozen=True, slots=True)
class CancelInstance:
    """JobMaster -> worker: abandon the current instance (backup won)."""

    instance_id: str


@dataclass(frozen=True, slots=True)
class InstanceCompleted:
    """Worker -> JobMaster: instance finished successfully."""

    worker_id: str
    instance_id: str
    machine: str
    elapsed: float


@dataclass(frozen=True, slots=True)
class InstanceFailed:
    """Worker -> JobMaster: instance aborted."""

    worker_id: str
    instance_id: str
    machine: str
    reason: str


@dataclass(frozen=True, slots=True)
class WorkerStatusReport:
    """Worker -> JobMaster: periodic progress (drives long-tail detection)."""

    worker_id: str
    machine: str
    instance_id: Optional[str]
    progress: float
    running_for: float
    last_completed: Optional[str] = None


class TaskWorker(Actor):
    """A simulated worker process bound to a container."""

    def __init__(self, loop: EventLoop, bus, plan: msg.WorkPlan,
                 machine_state: MachineState,
                 report_interval: float = 2.0):
        super().__init__(loop, f"worker:{plan.worker_id}", bus)
        self.plan = plan
        self.machine_state = machine_state
        # fixed for the worker's life, and read by every message it sends
        self.worker_id = plan.worker_id
        self.machine = machine_state.spec.name
        self.master_address = f"app:{plan.app_id}"
        self.report_interval = report_interval
        self.current_instance: Optional[str] = None
        self.instance_started_at: float = 0.0
        self.instance_duration: float = 0.0
        self.instances_run = 0
        self.last_completed: Optional[str] = None
        self._register()

    def _register(self) -> None:
        # "the application worker also registers itself to the application
        # master" (§2.2)
        self.send(self.master_address,
                  WorkerReady(self.worker_id, self.machine))
        self.set_periodic_timer("report", self.report_interval, self._report)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def handle_message(self, sender: str, message) -> None:
        # One lookup on the message type (see _HANDLERS at the class end).
        handler = self._HANDLERS.get(type(message))
        if handler is not None:
            handler(self, sender, message)

    def _cancel(self, sender: str, message: CancelInstance) -> None:
        if self.current_instance == message.instance_id:
            self.cancel_timer("finish")
            self.current_instance = None

    def _execute(self, sender: str, command: ExecuteInstance) -> None:
        if self.current_instance == command.instance_id:
            return  # duplicated command; already running it
        if self.current_instance is not None:
            # Busy with something else: refuse (bookkeeping raced).
            self.send(self.master_address, InstanceFailed(
                self.worker_id, command.instance_id, self.machine, "worker-busy"))
            return
        duration = command.duration * self.machine_state.slow_factor
        self.current_instance = command.instance_id
        self.instance_started_at = self.loop.now
        self.instance_duration = duration
        self.set_timer("finish", duration, self._finish)

    def _finish(self) -> None:
        instance_id = self.current_instance
        if instance_id is None:
            return
        elapsed = self.loop.now - self.instance_started_at
        self.current_instance = None
        self.instances_run += 1
        self.last_completed = instance_id
        self.send(self.master_address, InstanceCompleted(
            self.worker_id, instance_id, self.machine, elapsed))
        # Container reuse: the worker idles and re-registers for more work.
        self.send(self.master_address,
                  WorkerReady(self.worker_id, self.machine, instance_id))

    def _report(self) -> None:
        running_for = 0.0
        progress = 1.0
        if self.current_instance is not None:
            running_for = self.loop.now - self.instance_started_at
            if self.instance_duration > 0:
                progress = min(running_for / self.instance_duration, 0.99)
        self.send(self.master_address, WorkerStatusReport(
            self.worker_id, self.machine, self.current_instance,
            progress, running_for, self.last_completed))

    def on_crash(self) -> None:
        self.current_instance = None

    #: message type -> handler(self, sender, message).  Keyed on the exact
    #: type: messages are slotted dataclasses and none subclasses another.
    _HANDLERS = {ExecuteInstance: _execute, CancelInstance: _cancel}
