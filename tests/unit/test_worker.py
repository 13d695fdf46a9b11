"""Unit tests for the TaskWorker actor."""

from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core import messages as msg
from repro.core.resources import ResourceVector
from repro.core.units import UnitKey
from repro.jobs.worker import (CancelInstance, ExecuteInstance,
                               InstanceCompleted, InstanceFailed, TaskWorker,
                               WorkerReady, WorkerStatusReport)
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom


class MasterProbe(Actor):
    def __init__(self, loop, bus):
        super().__init__(loop, "app:a1", bus)
        self.received = []

    def handle_message(self, sender, message):
        self.received.append(message)

    def of_type(self, cls):
        return [m for m in self.received if isinstance(m, cls)]


def make_worker(slow_factor=1.0, report_interval=2.0):
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig(latency=0.001,
                                                         jitter=0.0))
    master = MasterProbe(loop, bus)
    state = MachineState(spec=MachineSpec(
        "m1", "r1", ResourceVector.of(cpu=400, memory=8192)))
    state.slow_factor = slow_factor
    plan = msg.WorkPlan("a1", "w1", UnitKey("a1", 1),
                        ResourceVector.of(cpu=100, memory=2048))
    worker = TaskWorker(loop, bus, plan, state,
                        report_interval=report_interval)
    return loop, master, worker


def test_registers_on_start():
    loop, master, worker = make_worker()
    loop.run_until(0.5)
    ready = master.of_type(WorkerReady)
    assert ready and ready[0].worker_id == "w1"
    assert ready[0].machine == "m1"


def test_executes_and_reports_completion():
    loop, master, worker = make_worker()
    worker.deliver("app:a1", ExecuteInstance("t/0", 3.0, {}))
    loop.run_until(5.0)
    done = master.of_type(InstanceCompleted)
    assert done and done[0].instance_id == "t/0"
    assert done[0].elapsed == 3.0
    # re-registers as ready (container reuse), carrying the completion
    ready = master.of_type(WorkerReady)
    assert ready[-1].last_completed == "t/0"
    assert worker.instances_run == 1


def test_slow_machine_stretches_execution():
    loop, master, worker = make_worker(slow_factor=4.0)
    worker.deliver("app:a1", ExecuteInstance("t/0", 3.0, {}))
    loop.run_until(11.0)
    assert not master.of_type(InstanceCompleted)
    loop.run_until(13.0)
    assert master.of_type(InstanceCompleted)


def test_duplicate_execute_ignored():
    loop, master, worker = make_worker()
    worker.deliver("app:a1", ExecuteInstance("t/0", 3.0, {}))
    worker.deliver("app:a1", ExecuteInstance("t/0", 3.0, {}))
    loop.run_until(10.0)
    assert len(master.of_type(InstanceCompleted)) == 1
    assert not master.of_type(InstanceFailed)


def test_busy_with_other_instance_refuses():
    loop, master, worker = make_worker()
    worker.deliver("app:a1", ExecuteInstance("t/0", 3.0, {}))
    worker.deliver("app:a1", ExecuteInstance("t/1", 3.0, {}))
    loop.run_until(10.0)
    failed = master.of_type(InstanceFailed)
    assert failed and failed[0].instance_id == "t/1"
    assert failed[0].reason == "worker-busy"


def test_cancel_aborts_current_instance():
    loop, master, worker = make_worker()
    worker.deliver("app:a1", ExecuteInstance("t/0", 5.0, {}))
    loop.run_until(1.0)
    worker.deliver("app:a1", CancelInstance("t/0"))
    loop.run_until(10.0)
    assert not master.of_type(InstanceCompleted)
    assert worker.current_instance is None


def test_cancel_of_other_instance_ignored():
    loop, master, worker = make_worker()
    worker.deliver("app:a1", ExecuteInstance("t/0", 2.0, {}))
    worker.deliver("app:a1", CancelInstance("t/9"))
    loop.run_until(5.0)
    assert master.of_type(InstanceCompleted)


def test_status_reports_the_running_attempt():
    loop, master, worker = make_worker(report_interval=1.0)
    worker.deliver("app:a1", ExecuteInstance("t/0", 10.0, {}))
    loop.run_until(3.6)
    reports = [r for r in master.of_type(WorkerStatusReport)
               if r.instance_id == "t/0"]
    # on the reports' phase grid: the first instant 0.25 + k at least one
    # interval after the worker registered at t = 0, then every interval
    assert [r.running_for for r in reports] == [1.25, 2.25, 3.25]


def test_idle_status_reports_last_completed():
    loop, master, worker = make_worker(report_interval=1.0)
    worker.deliver("app:a1", ExecuteInstance("t/0", 1.0, {}))
    loop.run_until(4.0)
    idle_reports = [r for r in master.of_type(WorkerStatusReport)
                    if r.instance_id is None]
    assert idle_reports
    assert idle_reports[-1].last_completed == "t/0"


def test_crash_stops_everything():
    loop, master, worker = make_worker()
    worker.deliver("app:a1", ExecuteInstance("t/0", 2.0, {}))
    worker.crash()
    loop.run_until(10.0)
    assert not master.of_type(InstanceCompleted)
