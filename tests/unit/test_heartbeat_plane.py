"""Unit tests for the heartbeat plane: cohort membership, delivery runs
against other events, the master's roll-up, and what it all costs.

The ordering tests run every scenario twice — cohort agents and the
per-beat agents of ``tests/properties/per_beat_oracle.py`` — and require
the same log, besides asserting the order itself.
"""

import pytest

from repro import kernels
from repro.api import ClusterBuilder, RunSpec, simulate
from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig
from repro.core.health import HealthPlugin
from repro.core.master import FuxiMaster
from repro.core.resources import ResourceVector
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

from tests.properties.per_beat_oracle import (FirstBeatAgent, PerBeatAgent,
                                              per_beat_agents)

MASTER = "fuxi-master"
MACHINES = ("m1", "m2", "m3", "m4")


class Probe(Actor):
    """A master stand-in without a roll-up: every beat reaches it as a
    message, and it logs who beat when."""

    def __init__(self, loop, bus, log):
        super().__init__(loop, MASTER, bus)
        self.log = log
        self.on_beat = None

    def handle_message(self, sender, message):
        if isinstance(message, msg.AgentHeartbeat):
            self.log.append((message.machine, self.loop.now))
            if self.on_beat is not None:
                self.on_beat(message)


class FoldingProbe(Probe):
    """A master stand-in that folds every beat but ``slow``'s in bulk."""

    slow = ()

    def absorb_heartbeats(self, beats, order, times, start, end):
        stop = start
        for position in order[start:end]:
            if beats.machines[position] in self.slow:
                break
            self.log.append((beats.machines[position], times[stop]))
            stop += 1
        return stop


def build(agent_cls, probe_cls=Probe, machines=MACHINES):
    loop = EventLoop()
    # no jitter: a beat fired at t arrives at t + latency + edge epsilon
    bus = MessageBus(loop, SplitRandom(3),
                     NetworkConfig(latency=0.001, jitter=0.0))
    log = []
    probe = probe_cls(loop, bus, log)
    agents = {name: agent_cls(
        loop, bus, MachineState(spec=MachineSpec(
            name, "r1", ResourceVector.of(cpu=400, memory=8192))),
        FuxiAgentConfig()) for name in machines}
    return loop, bus, probe, agents, log


def arrival(bus, machine, fired_at):
    """When the beat ``machine`` sends at ``fired_at`` arrives."""
    epsilon = bus._edge(f"agent:{machine}", MASTER)[1]
    return fired_at + (0.001 + epsilon)


def arrival_order(bus, fired_at=1.0):
    return sorted(MACHINES, key=lambda name: arrival(bus, name, fired_at))


BOTH_PLANES = pytest.mark.parametrize(
    "agent_cls, probe_cls",
    [(PerBeatAgent, Probe), (FuxiAgent, Probe), (FuxiAgent, FoldingProbe)],
    ids=["per-beat", "cohort", "cohort+roll-up"])


# --------------------------------------------------------------------- #
# (b) ties between a beat and another event
# --------------------------------------------------------------------- #

@BOTH_PLANES
def test_event_at_a_beats_arrival_orders_by_when_it_was_scheduled(agent_cls,
                                                                  probe_cls):
    loop, bus, probe, agents, log = build(agent_cls, probe_cls)
    second = arrival_order(bus)[1]
    tie = arrival(bus, second, 1.0)
    # scheduled before the beats of t=1 are sent: lower sequence number
    loop.call_at(tie, log.append, "scheduled-before-the-fire")
    # scheduled after them (a later event of the same instant does it)
    loop.call_at(1.0, lambda: loop.call_at(tie, log.append,
                                           "scheduled-after-the-fire"))
    loop.run_until(1.9)
    window = [entry for entry in log
              if isinstance(entry, str) or entry[1] > 1.0]
    names = [entry if isinstance(entry, str) else entry[0]
             for entry in window]
    first, second, third, fourth = arrival_order(bus)
    assert names == [first, "scheduled-before-the-fire", second,
                     "scheduled-after-the-fire", third, fourth]
    assert [entry[1] for entry in window if not isinstance(entry, str)] \
        == [arrival(bus, name, 1.0) for name in arrival_order(bus)]


# --------------------------------------------------------------------- #
# (c) run_until ending inside a run
# --------------------------------------------------------------------- #

@BOTH_PLANES
def test_run_until_ending_inside_a_run_delivers_only_what_arrived(agent_cls,
                                                                  probe_cls):
    loop, bus, probe, agents, log = build(agent_cls, probe_cls)
    order = arrival_order(bus)
    bound = arrival(bus, order[1], 1.0)     # exactly the second arrival
    loop.run_until(bound)
    assert loop.now == bound
    assert [name for name, when in log if when > 1.0] == order[:2]
    between = (arrival(bus, order[1], 1.0) + arrival(bus, order[2], 1.0)) / 2
    loop.run_until(between)
    assert loop.now == between
    assert [name for name, when in log if when > 1.0] == order[:2]
    loop.run_until(1.5)
    assert [name for name, when in log if when > 1.0] == order
    assert loop.now == 1.5


# --------------------------------------------------------------------- #
# (d) a slow beat whose handler schedules into the rest of the run
# --------------------------------------------------------------------- #

@BOTH_PLANES
def test_event_scheduled_by_a_slow_beat_lands_inside_the_run(agent_cls,
                                                             probe_cls):
    loop, bus, probe, agents, log = build(agent_cls, probe_cls)
    order = arrival_order(bus)
    probe.slow = (order[0],)         # FoldingProbe: this one is a message
    gap = (arrival(bus, order[1], 1.0) + arrival(bus, order[2], 1.0)) / 2

    def on_beat(beat):
        if beat.machine == order[0] and loop.now > 1.0:
            loop.call_at(gap, log.append, "scheduled-by-the-slow-beat")

    probe.on_beat = on_beat
    loop.run_until(1.9)
    names = [entry if isinstance(entry, str) else entry[0]
             for entry in log if isinstance(entry, str) or entry[1] > 1.0]
    assert names == [order[0], order[1], "scheduled-by-the-slow-beat",
                     order[2], order[3]]


# --------------------------------------------------------------------- #
# (f) membership
# --------------------------------------------------------------------- #

def test_agents_built_together_share_one_cohort_and_one_event():
    loop, bus, probe, agents, log = build(FuxiAgent)
    cohorts = {id(agent._cohort) for agent in agents.values()}
    assert len(cohorts) == 1
    cohort = agents["m1"]._cohort
    assert cohort.members == list(agents.values())      # arming order
    assert all("heartbeat" not in agent._timers for agent in agents.values())
    # the immediate beats as one run + the cohort's one timer
    assert loop.pending() == 2
    assert cohort._first.agents == list(agents.values())
    loop.run_until(3.5)
    assert cohort.fires_at == 4.0
    assert sorted(name for name, when in log if 3.0 < when < 3.5) \
        == sorted(MACHINES)


def test_crash_restart_crash_of_one_member_across_two_firings():
    logs = {}
    for agent_cls in (PerBeatAgent, FuxiAgent):
        loop, bus, probe, agents, log = build(agent_cls)
        victim = agents["m2"]
        loop.run_until(1.5)
        victim.crash()                       # leaves before the t=2 firing
        loop.run_until(2.25)
        victim.restart()                     # beats at 2.25, 3.25, ...
        loop.run_until(3.5)
        victim.crash()
        loop.run_until(5.5)
        logs[agent_cls] = (log, bus.messages_sent, bus.messages_delivered,
                           loop.events_executed + loop.events_absorbed)
        if agent_cls is FuxiAgent:
            assert victim._cohort is None
            big = agents["m1"]._cohort
            assert big.members == [agents["m1"], agents["m3"], agents["m4"]]
    log = logs[FuxiAgent][0]
    assert logs[FuxiAgent] == logs[PerBeatAgent]
    beats_of_victim = [round(when, 2) for name, when in log if name == "m2"]
    assert beats_of_victim == [0.0, 1.0, 2.25, 3.25]


def test_restarted_agent_forms_the_cohort_of_its_own_restart_instant():
    loop, bus, probe, agents, log = build(FuxiAgent)
    loop.run_until(1.5)
    original = agents["m1"]._cohort
    for name in ("m2", "m3"):                # same loop step: one cohort
        agents[name].crash()
        agents[name].restart()
    assert agents["m2"]._cohort is agents["m3"]._cohort is not original
    assert agents["m2"]._cohort.members == [agents["m2"], agents["m3"]]
    assert agents["m2"]._cohort.fires_at == 2.5
    assert original.members == [agents["m1"], agents["m4"]]
    # a loop step later — even at the same simulated time — it is closed:
    # another event of that instant may sit between the two arming points
    loop.call_at(1.5, lambda: None)
    loop.run_until(1.5)
    agents["m4"].crash()
    agents["m4"].restart()
    assert agents["m4"]._cohort is not agents["m2"]._cohort
    assert agents["m4"]._cohort.fires_at == 2.5
    assert original.members == [agents["m1"]]


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_agent_restarted_twice_in_one_step_sends_two_first_beats(backend):
    """``[m2, m3, m2]`` in one first-beat run: m2's edge carries two
    messages in one batch, and each must take the counter at its turn, as
    two sends would (a kernel that read every counter first would not)."""
    if backend == "numpy" and not kernels.numpy_available():
        pytest.skip("numpy not installed")
    outcomes = {}
    for agent_cls in (FirstBeatAgent, FuxiAgent):
        with kernels.use(backend):
            loop, bus, probe, agents, log = build(agent_cls)
            bus.config.jitter = 0.0005
            loop.run_until(1.5)

            def bounce():
                for name in ("m2", "m3", "m2"):
                    agents[name].crash()
                    agents[name].restart()

            loop.call_at(2.25, bounce)
            loop.run_until(4.0)
        outcomes[agent_cls] = (log, bus.messages_sent, loop._seq,
                               loop.events_executed + loop.events_absorbed,
                               bus._edges[("agent:m2", MASTER)][2])
    assert outcomes[FuxiAgent] == outcomes[FirstBeatAgent]
    first_beats = sorted(name for name, when in outcomes[FuxiAgent][0]
                         if 2.25 < when < 2.26)
    assert first_beats == ["m2", "m2", "m3"]


def test_cohort_whose_last_member_leaves_cancels_its_event():
    loop, bus, probe, agents, log = build(FuxiAgent, machines=("m1",))
    loop.run_until(0.5)
    assert loop.pending() == 1               # the cohort's timer
    agents["m1"].dispose()
    assert loop.pending() == 0
    assert bus.open_cohort is None or bus.open_cohort.members


def test_beat_in_flight_survives_its_senders_crash():
    """The bus delivers what was sent: a batch keeps the member list and
    the snapshots it was fired with."""
    for agent_cls in (PerBeatAgent, FuxiAgent):
        loop, bus, probe, agents, log = build(agent_cls)
        loop.run_until(1.0)                  # fired, nothing arrived yet
        agents["m3"]._book_digest = 99       # after the snapshot
        agents["m3"].crash()
        seen = []
        probe.on_beat = lambda beat: seen.append((beat.machine,
                                                  beat.book_digest))
        loop.run_until(1.5)
        assert sorted(seen) == [(name, 0) for name in MACHINES]


# --------------------------------------------------------------------- #
# (g) fall-backs
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("knob", ["duplicate_prob", "reorder_prob"])
def test_duplicating_or_reordering_transport_stays_per_message(knob):
    counts = {}
    for agent_cls in (PerBeatAgent, FuxiAgent):
        loop, bus, probe, agents, log = build(agent_cls)
        setattr(bus.config, knob, 0.5)
        loop.run_until(6.5)
        counts[agent_cls] = (log, bus.messages_sent, bus.messages_duplicated,
                             loop.events_executed + loop.events_absorbed)
    assert counts[FuxiAgent] == counts[PerBeatAgent]
    if knob == "duplicate_prob":
        assert counts[FuxiAgent][2] > 0


def test_adding_a_health_plugin_invalidates_the_roll_ups_identity_test():
    cluster = ClusterBuilder(racks=1, machines_per_rack=3).build()
    master = cluster.primary_master
    machine = cluster.topology.machines()[0]
    sample = cluster.topology.state(machine).health_sample()
    assert master.health.folded[machine] is sample

    class Pessimist(HealthPlugin):
        weight = 100.0

        def evaluate(self, sample):
            return 0.0

    master.health.add_plugin(Pessimist())
    assert not master.health.folded
    cluster.run_for(2.0)                     # the beats are re-folded
    assert master.health.score(machine) < 0.1
    assert master.health.folded[machine] is sample


def test_machine_state_sample_is_replaced_not_mutated():
    state = MachineState(spec=MachineSpec.testbed("m1", "r1"))
    healthy = state.health_sample()
    assert state.health_sample() is healthy
    state.slow_factor = 2.0                  # not a sample input
    state.disk_errors = 0.0                  # same value
    assert state.health_sample() is healthy
    state.disk_errors = 7.0
    degraded = state.health_sample()
    assert degraded is not healthy
    assert healthy["disk_errors"] == 0.0 and degraded["disk_errors"] == 7.0
    state.reset_faults()
    assert state.health_sample() == healthy


# --------------------------------------------------------------------- #
# the roll-up against the per-message handler, on a real master
# --------------------------------------------------------------------- #

def _small_cluster(per_beat):
    builder = ClusterBuilder(racks=2, machines_per_rack=3, seed=5)
    if per_beat:
        with per_beat_agents():
            return builder.build(warm_up=False)
    return builder.build(warm_up=False)


def test_roll_up_takes_the_full_path_exactly_when_something_changes():
    outcomes = []
    for per_beat in (True, False):
        cluster = _small_cluster(per_beat)
        cluster.warm_up()
        master = cluster.primary_master
        handled = []
        original = master._dispatch[msg.AgentHeartbeat]
        master._dispatch[msg.AgentHeartbeat] = (
            lambda sender, beat: (handled.append(beat.machine),
                                  original(sender, beat)))
        machines = cluster.topology.machines()
        cluster.run_for(2.0)
        quiet = list(handled)
        # a health change, a capacity change and a book drift: one full
        # path each (two for the drift: the repair arrives a beat later)
        cluster.topology.state(machines[0]).disk_errors = 3.0
        spec = cluster.topology.spec(machines[1])
        object.__setattr__(spec, "capacity",
                           spec.capacity + ResourceVector.of(cpu=100))
        cluster.agents[machines[2]]._book_digest ^= 1
        cluster.run_for(3.0)
        outcomes.append({
            "bytes": master.metrics.counter("fm.heartbeat_bytes"),
            "drift": master.metrics.counter("fm.digest_drift"),
            "score": master.health.score(machines[0]),
            "capacity": master.scheduler.pool.capacity(machines[1]),
            "events": cluster.events_total,
        })
        if not per_beat:
            assert quiet == []
            assert sorted(set(handled)) == sorted(machines[:3])
            assert handled.count(machines[0]) == 1
            assert handled.count(machines[1]) == 1
        else:
            assert len(quiet) == 2 * len(machines)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["drift"] >= 1
    assert outcomes[0]["score"] < 1.0


def test_traced_run_takes_the_untraced_path(monkeypatch):
    """Tracing observes the run; it does not switch the roll-up off."""
    handled = []
    original = FuxiMaster._handle_agent_heartbeat
    monkeypatch.setattr(
        FuxiMaster, "_handle_agent_heartbeat",
        lambda self, sender, beat: (handled.append(beat.machine),
                                    original(self, sender, beat)))
    spec = RunSpec(racks=4, machines_per_rack=15, concurrent_jobs=60,
                   duration=60)
    runs = []
    for trace in (False, True):
        handled.clear()
        result = simulate(spec, seed=7, trace=trace)
        summary = result.summary_dict()
        summary.pop("spec")
        runs.append({
            "summary": summary,
            "fm": {name: value
                   for name, value in result.metrics.counters().items()
                   if name.startswith("fm.")},
            "steps": result.cluster.loop.events_executed,
            "handler_calls": len(handled),
        })
    assert runs[0] == runs[1]
    assert runs[0]["handler_calls"] == 61


# --------------------------------------------------------------------- #
# (4) what it costs
# --------------------------------------------------------------------- #

def test_fault_free_run_executes_well_under_one_loop_step_per_event():
    cluster = ClusterBuilder(racks=10, machines_per_rack=20).build(
        warm_up=False)
    cluster.run_for(10.0)
    loop = cluster.loop
    assert loop.events_absorbed > 0
    assert loop.events_executed / cluster.events_total <= 0.7
    machines = cluster.topology.machines()
    # beats received by t=10: the immediate one and the firings of t=1..9
    # (the beats fired at t=10 are still in flight)
    agent = cluster.agents[machines[0]]
    per_beat = msg.AgentHeartbeat(
        machine=agent.machine, rack=agent.rack, capacity=agent.capacity,
        health_sample=agent.machine_state.health_sample()).payload_bytes()
    assert cluster.metrics.counter("fm.heartbeat_bytes") \
        == len(machines) * 10 * per_beat
    assert cluster.bus.messages_sent >= len(machines) * 11


def test_replaced_deliver_sees_every_beat():
    """The roll-up bypasses ``deliver``; an instance that intercepts it
    (the digest-drift chaos test eats one beat this way) gets them all."""
    cluster = ClusterBuilder(racks=1, machines_per_rack=4).build()
    master = cluster.primary_master
    victim = cluster.topology.machines()[0]
    original = master.deliver
    eaten = []

    def deaf_to_one_machine(sender, message):
        if (isinstance(message, msg.AgentHeartbeat)
                and message.machine == victim):
            eaten.append(cluster.loop.now)
            return
        original(sender, message)

    master.deliver = deaf_to_one_machine
    stamp = master._last_agent_seen.get(victim)
    cluster.run_for(3.0)
    assert len(eaten) == 3
    assert master._last_agent_seen.get(victim) == stamp
    del master.deliver
    cluster.run_for(1.0)
    assert master._last_agent_seen.get(victim) > stamp
