"""Unit tests for the FuxiAgent actor (capacity enforcement, launches)."""

from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig
from repro.core.resources import ResourceVector
from repro.core.units import UnitKey
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom


class Probe(Actor):
    """Stands in for FuxiMaster / an application master."""

    def __init__(self, loop, name, bus):
        super().__init__(loop, name, bus)
        self.received = []

    def handle_message(self, sender, message):
        self.received.append(message)

    def of_type(self, cls):
        return [m for m in self.received if isinstance(m, cls)]


def make_agent(worker_factory=None):
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig(latency=0.001,
                                                         jitter=0.0))
    master = Probe(loop, "fuxi-master", bus)
    app = Probe(loop, "app:a1", bus)
    state = MachineState(spec=MachineSpec(
        "m1", "r1", ResourceVector.of(cpu=400, memory=8192)))
    agent = FuxiAgent(loop, bus, state,
                      FuxiAgentConfig(worker_start_delay=0.1),
                      worker_factory=worker_factory)
    return loop, bus, master, app, agent


def unit_key():
    return UnitKey("a1", 1)


def grant_alloc(agent, count):
    agent._apply_allocation_full({unit_key(): count})


def plan(worker_id="w1"):
    return msg.WorkPlan("a1", worker_id, unit_key(),
                        ResourceVector.of(cpu=100, memory=2048))


def test_heartbeats_flow_periodically():
    loop, bus, master, app, agent = make_agent()
    loop.run_until(3.5)
    beats = master.of_type(msg.AgentHeartbeat)
    assert len(beats) >= 3
    assert beats[0].machine == "m1"
    assert beats[0].capacity == agent.capacity


def test_heartbeat_carries_health_sample():
    loop, bus, master, app, agent = make_agent()
    agent.machine_state.disk_errors = 4.0
    loop.run_until(1.5)
    beat = master.of_type(msg.AgentHeartbeat)[-1]
    assert beat.health_sample["disk_errors"] == 4.0


def test_work_plan_rejected_without_allocation():
    """Resource capacity ensurance: no grant booked, no process started."""
    loop, bus, master, app, agent = make_agent()
    agent.deliver("app:a1", plan())
    loop.run_until(1.0)
    failures = app.of_type(msg.WorkerLaunchFailed)
    assert failures and failures[0].reason == "insufficient-resource"
    assert agent.launch_rejects == 1


def test_work_plan_launches_within_allocation():
    launched = []
    loop, bus, master, app, agent = make_agent(
        worker_factory=lambda p, m: launched.append((p.worker_id, m)))
    grant_alloc(agent, 2)
    agent.deliver("app:a1", plan("w1"))
    agent.deliver("app:a1", plan("w2"))
    loop.run_until(1.0)
    assert launched == [("w1", "m1"), ("w2", "m1")]
    assert len(app.of_type(msg.WorkerStarted)) == 2


def test_third_worker_beyond_allocation_rejected():
    loop, bus, master, app, agent = make_agent(worker_factory=lambda p, m: None)
    grant_alloc(agent, 2)
    for wid in ("w1", "w2", "w3"):
        agent.deliver("app:a1", plan(wid))
    loop.run_until(1.0)
    assert len(app.of_type(msg.WorkerLaunchFailed)) == 1


def test_duplicate_work_plan_is_idempotent():
    launched = []
    loop, bus, master, app, agent = make_agent(
        worker_factory=lambda p, m: launched.append(p.worker_id))
    grant_alloc(agent, 1)
    agent.deliver("app:a1", plan("w1"))
    agent.deliver("app:a1", plan("w1"))
    loop.run_until(1.0)
    assert launched == ["w1"]


def test_capacity_shrink_kills_excess_workers():
    """'FuxiAgent will kill one process of this application compulsorily.'"""
    loop, bus, master, app, agent = make_agent(worker_factory=lambda p, m: None)
    grant_alloc(agent, 2)
    agent.deliver("app:a1", plan("w1"))
    agent.deliver("app:a1", plan("w2"))
    loop.run_until(1.0)
    agent._apply_allocation_full({unit_key(): 1})
    loop.run_until(2.0)
    exits = app.of_type(msg.WorkerExited)
    assert len(exits) == 1
    assert exits[0].reason == "capacity-revoked"
    assert len(agent.workers) == 1


def test_launch_failure_fault_mode():
    loop, bus, master, app, agent = make_agent()
    agent.machine_state.launch_failures = True
    grant_alloc(agent, 1)
    agent.deliver("app:a1", plan())
    loop.run_until(1.0)
    failures = app.of_type(msg.WorkerLaunchFailed)
    assert failures and failures[0].reason == "launch-failure"


def test_stop_worker():
    loop, bus, master, app, agent = make_agent(worker_factory=lambda p, m: None)
    grant_alloc(agent, 1)
    agent.deliver("app:a1", plan("w1"))
    loop.run_until(1.0)
    agent.deliver("app:a1", msg.StopWorker("a1", "w1"))
    loop.run_until(2.0)
    assert agent.workers == {}
    exits = app.of_type(msg.WorkerExited)
    assert exits and exits[0].reason == "stopped"


def test_resync_request_returns_full_state():
    loop, bus, master, app, agent = make_agent()
    grant_alloc(agent, 3)
    agent.deliver("fuxi-master", msg.ResyncRequest("fuxi-master", 1))
    loop.run_until(0.5)
    reports = master.of_type(msg.AgentFullState)
    assert reports
    assert reports[-1].allocations == {unit_key(): 3}
    assert reports[-1].capacity == agent.capacity


def test_restart_asks_master_and_apps_for_state():
    loop, bus, master, app, agent = make_agent(worker_factory=lambda p, m: None)
    grant_alloc(agent, 1)
    agent.deliver("app:a1", plan("w1"))
    loop.run_until(1.0)
    agent.crash()
    assert agent.allocations == {}
    agent.restart()
    loop.run_until(2.0)
    assert master.of_type(msg.ResyncRequest)
    # no live worker actors existed (factory returned None), so no
    # WorkerListRequest is required; books come back via the master resync
