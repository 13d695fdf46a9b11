"""The bus's sender-keyed randomness (``repro.cluster.network``).

The n-th message a name sends since it was last registered draws from
``(seed, sender, n)``: one state per sender, shared by single sends, held
outboxes and delivery runs, dropped when the name is unregistered, so a
worker re-created under its old name and a job master launched again
after its job was reaped each start at slot 0.  Under a jitter-free
transport one sender's messages of one instant tie, and arrive in the
sender's own send order.
"""

import pytest

from repro import kernels
from repro.cluster.network import MessageBus, Messages, NetworkConfig
from repro.core.agent import FuxiAgent
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom
from repro.workloads.synthetic import mapreduce_job

from tests.conftest import make_cluster
from tests.properties.per_beat_oracle import PerBeatAgent
from tests.unit.test_heartbeat_plane import build

BACKENDS = [pytest.param(name, marks=pytest.mark.skipif(
    name == "numpy" and not kernels.numpy_available(),
    reason="numpy not installed")) for name in ("python", "numpy")]


class Recorder(Actor):
    def __init__(self, loop, name, bus, log):
        super().__init__(loop, name, bus)
        self.log = log

    def handle_message(self, sender, message):
        self.log.append((self.name, message, self.loop.now))


def count_sends(bus):
    """Count each sender's messages from now on, whichever way they
    leave: a single send or a held outbox."""
    counts = {}
    send, post = bus.send, bus.post

    def counting_send(sender, dest, message):
        counts[sender] = counts.get(sender, 0) + 1
        send(sender, dest, message)

    def counting_post(outbox, sender, dest, message):
        counts[sender] = counts.get(sender, 0) + 1
        post(outbox, sender, dest, message)

    bus.send, bus.post = counting_send, counting_post
    return counts


# --------------------------------------------------------------------- #
# ties under a jitter-free transport
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("how", ["send", "outbox", "run"])
def test_one_senders_instant_ties_and_arrives_in_send_order(backend, how):
    """Every message ``src`` sends at t = 1 arrives at the same float time
    (one epsilon, no jitter), in the order it sent them, whatever the
    destinations' names; another sender's message never ties with them."""
    dests = ["d3", "d1", "d2", "d1"]
    with kernels.use(backend):
        loop = EventLoop()
        bus = MessageBus(loop, SplitRandom(5),
                         NetworkConfig(latency=0.001, jitter=0.0))
        log = []
        for name in ("d1", "d2", "d3"):
            Recorder(loop, name, bus, log)

        def fire():
            if how == "run":
                bus.send_run(bus.edge_group("src", dests),
                             Messages(list(range(len(dests)))))
            elif how == "outbox":
                bus.hold()
                for position, dest in enumerate(dests):
                    bus.post(bus.outbox, "src", dest, position)
                bus.release()
            else:
                for position, dest in enumerate(dests):
                    bus.send("src", dest, position)
            bus.send("other", "d2", "other")

        loop.call_at(1.0, fire)
        loop.run()
    ours = [(name, message) for name, message, _ in log
            if message != "other"]
    assert ours == list(zip(dests, range(len(dests))))
    assert len({when for _, message, when in log if message != "other"}) == 1
    assert len({when for _, _, when in log}) == 2


# --------------------------------------------------------------------- #
# one state per sender, whichever path a message takes
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cohort_beat_and_a_single_send_share_one_stream(backend):
    """An agent's single send between two cohort firings takes the slot
    its next beat would have taken: the beat moves, the other agents'
    beats stay where they were, and the cohort plane still logs what
    per-beat sends log."""
    outcomes = {}
    for agent_cls in (PerBeatAgent, FuxiAgent):
        for extra in (False, True):
            with kernels.use(backend):
                loop, bus, probe, agents, log = build(agent_cls)
                bus.config.jitter = 0.0005
                loop.run_until(1.5)
                if extra:
                    loop.call_at(1.6, lambda: agents["m2"].send(
                        "nowhere", "one more"))
                loop.run_until(4.0)
            outcomes[agent_cls, extra] = (log,
                                          bus._states["agent:m2"].index)
    for extra in (False, True):
        assert outcomes[FuxiAgent, extra] == outcomes[PerBeatAgent, extra]
    (plain, plain_slots), (moved, moved_slots) = (
        outcomes[FuxiAgent, False], outcomes[FuxiAgent, True])
    assert moved_slots == plain_slots + 1
    later = [(name, when) for name, when in plain if when > 1.6]
    shifted = [(name, when) for name, when in moved if when > 1.6]
    assert ([entry for entry in later if entry[0] != "m2"]
            == [entry for entry in shifted if entry[0] != "m2"])
    assert ([entry for entry in later if entry[0] == "m2"]
            != [entry for entry in shifted if entry[0] == "m2"])


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cached_cohort_group_follows_a_dropped_state(backend):
    """A cohort keeps its group across firings, but the group holds no
    counter: once the bus drops a member's state, the next firing starts
    a new one at slot 0 instead of advancing the dropped one."""
    with kernels.use(backend):
        loop, bus, probe, agents, log = build(FuxiAgent)
        loop.run_until(2.5)
        dropped = bus._states["agent:m3"]
        assert dropped.index >= 2
        bus.unregister("agent:m3")
        assert "agent:m3" not in bus._states
        loop.run_until(3.25)
    assert bus._states["agent:m3"] is not dropped
    assert bus._states["agent:m3"].index == 1
    assert bus._states["agent:m1"].index == dropped.index + 1


# --------------------------------------------------------------------- #
# a name registered again starts at slot 0
# --------------------------------------------------------------------- #

def test_a_recreated_worker_starts_at_slot_zero():
    cluster = make_cluster()
    bus = cluster.bus
    cluster.submit_job(mapreduce_job("wc", mappers=6, reducers=1,
                                     map_duration=30.0))
    cluster.run_for(6.0)
    worker = next(actor for name, actor in bus._actors.items()
                  if name.startswith("worker:") and actor.alive)
    name, plan, machine = worker.name, worker.plan, worker.machine
    assert bus._states[name].index >= 2
    cluster.crash_workers(machine)
    assert name not in bus._actors and name not in bus._states
    counts = count_sends(bus)
    again = cluster._create_worker(plan, machine)
    assert again is not worker and again.name == name
    cluster.run_for(3.0)
    assert counts[name] >= 1
    assert bus._states[name].index == counts[name]


def test_a_relaunched_job_master_starts_at_slot_zero():
    """A launch that arrives after the job was reaped (a late
    ``AppMasterSpawn``) builds a new master under the reaped name: its
    stream starts at slot 0, not where the reaped one stopped."""
    cluster = make_cluster()
    bus = cluster.bus
    spec = mapreduce_job("wc", mappers=2, reducers=1, map_duration=1.0,
                         reduce_duration=0.5)
    app = cluster.submit_job(spec)
    cluster.run_for(20.0)
    assert app in cluster.job_results
    name = f"app:{app}"
    assert bus._states[name].index >= 2
    cluster.reap_job(app)
    assert name not in bus._actors and name not in bus._states
    counts = count_sends(bus)
    description = spec.to_description()
    description["submitted_at"] = cluster.loop.now
    cluster.start_app_master(app, description, next(iter(cluster.agents)))
    cluster.run_for(2.0)
    assert counts[name] >= 1
    assert bus._states[name].index == counts[name]


def test_a_restart_in_place_keeps_its_stream():
    """A crash and restart is neither an unregistration nor a
    registration: the stream goes on from where it was."""
    cluster = make_cluster()
    bus = cluster.bus
    agent = cluster.agents[next(iter(cluster.agents))]
    cluster.run_for(2.0)
    state = bus._states[agent.name]
    slots = state.index
    agent.crash()
    agent.restart()
    cluster.run_for(2.0)
    assert bus._states[agent.name] is state and state.index > slots
