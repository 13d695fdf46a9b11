"""Unit tests for the FuxiMaster actor: election, heartbeats, supervision.

Integration coverage exercises full failovers; these tests pin the actor's
individual behaviours against hand-driven messages.
"""

from repro.cluster.lockservice import LockService
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core import messages as msg
from repro.core.checkpoint import CheckpointStore
from repro.core.master import FuxiMaster, FuxiMasterConfig
from repro.core.protocol import FullSyncEnvelope
from repro.core.resources import ResourceVector
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

CAP = ResourceVector.of(cpu=400, memory=8192)


class Probe(Actor):
    def __init__(self, loop, name, bus):
        super().__init__(loop, name, bus)
        self.received = []

    def handle_message(self, sender, message):
        self.received.append(message)

    def of_type(self, cls):
        return [m for m in self.received if isinstance(m, cls)]


def setup(standby=False, config=None):
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig(latency=0.001,
                                                         jitter=0.0))
    locks = LockService(loop, default_lease=4.0)
    checkpoint = CheckpointStore()
    config = config or FuxiMasterConfig(recovery_window=0.5,
                                        heartbeat_timeout=3.0)
    masters = [FuxiMaster(loop, bus, "fuxi-master-0", locks, checkpoint,
                          config)]
    if standby:
        masters.append(FuxiMaster(loop, bus, "fuxi-master-1", locks,
                                  checkpoint, config))
    return loop, bus, locks, checkpoint, masters


def beat(machine="m1", rack="r1", book_version=0):
    return msg.AgentHeartbeat(machine=machine, rack=rack, capacity=CAP,
                              health_sample={}, book_version=book_version)


def test_first_master_becomes_primary_immediately():
    loop, bus, locks, checkpoint, masters = setup(standby=True)
    assert masters[0].is_primary
    assert masters[1].role == "standby"
    assert bus.resolve("fuxi-master") == "fuxi-master-0"


def test_standby_does_not_process_traffic():
    loop, bus, locks, checkpoint, masters = setup(standby=True)
    standby = masters[1]
    standby.deliver("agent:m1", beat())
    assert standby.scheduler is None


def test_heartbeat_registers_machine_after_recovery_window():
    loop, bus, locks, checkpoint, masters = setup()
    primary = masters[0]
    loop.run_until(1.0)   # recovery window (0.5s) passes
    primary.deliver("agent:m1", beat())
    assert primary.scheduler.pool.has_machine("m1")


def test_heartbeat_during_recovery_asks_for_full_state():
    """Books that have changed (version > 0) may hold grants the new
    primary must learn before it re-adds the machine."""
    loop, bus, locks, checkpoint, masters = setup()
    agent_probe = Probe(loop, "agent:m1", bus)
    primary = masters[0]
    assert primary.recovering
    primary.deliver("agent:m1", beat(book_version=3))
    loop.run_until(0.2)
    assert agent_probe.of_type(msg.ResyncRequest)
    assert not primary.scheduler.pool.has_machine("m1")


def test_version_zero_heartbeat_during_recovery_registers_the_machine():
    """Version 0 proves the books empty: the beat is the whole report, so
    no round trip, and the books match at the window's end (no push)."""
    loop, bus, locks, checkpoint, masters = setup()
    agent_probe = Probe(loop, "agent:m1", bus)
    primary = masters[0]
    assert primary.recovering
    primary.deliver("agent:m1", beat())
    assert primary.scheduler.pool.has_machine("m1")
    assert "m1" in primary._pending_agent_reports   # counts as reported
    loop.run_until(1.0)                             # the window closes
    assert not primary.recovering
    assert agent_probe.received == []


def test_heartbeat_timeout_removes_machine():
    loop, bus, locks, checkpoint, masters = setup()
    primary = masters[0]
    loop.run_until(1.0)
    primary.deliver("agent:m1", beat())
    assert primary.scheduler.pool.has_machine("m1")
    loop.run_until(6.0)   # timeout 3s, no more beats
    assert not primary.scheduler.pool.has_machine("m1")
    assert primary.metrics.counter("fm.heartbeat_timeouts") == 1


def test_steady_heartbeats_keep_machine():
    loop, bus, locks, checkpoint, masters = setup()
    primary = masters[0]

    def keep_beating():
        if primary.alive:
            primary.deliver("agent:m1", beat())
            loop.call_after(1.0, keep_beating)

    loop.call_after(1.0, keep_beating)
    loop.run_until(8.0)
    assert primary.scheduler.pool.has_machine("m1")


def drift_setup():
    """A registered machine, past the recovery window, whose agent is a
    probe: what the master sends it is recorded, and nothing is acked."""
    loop, bus, locks, checkpoint, masters = setup()
    agent_probe = Probe(loop, "agent:m1", bus)
    primary = masters[0]
    loop.run_until(1.0)
    primary.deliver("agent:m1", beat())
    loop.run_until(1.1)
    assert agent_probe.received == []
    return loop, primary, agent_probe


def full_syncs(probe):
    return [m for m in probe.of_type(msg.Envelope)
            if isinstance(m.inner, FullSyncEnvelope)]


def test_beat_predating_an_unacked_delta_is_not_drift():
    loop, primary, agent_probe = drift_setup()
    primary.hub.send_delta("agent:m1", "alloc", msg.AllocationUpdate(()))
    # the agent's books (digest 7) before that delta lands, on two beats
    for when in (1.2, 2.2):
        loop.run_until(when)
        primary.deliver("agent:m1", msg.AgentHeartbeat(
            "m1", "r1", CAP, {}, book_version=1, book_digest=7))
    loop.run_until(2.3)
    assert primary.metrics.counter("fm.digest_drift") == 0
    assert full_syncs(agent_probe) == []


def test_mismatch_after_the_ack_is_drift_and_pushes_the_books():
    """Once the delta is acked, a differing digest is drift when two
    consecutive beats show it."""
    loop, primary, agent_probe = drift_setup()
    primary.hub.send_delta("agent:m1", "alloc", msg.AllocationUpdate(()))
    loop.run_until(1.2)
    [delta] = agent_probe.of_type(msg.Envelope)
    primary.deliver("agent:m1", msg.Ack(delta.inner.stream,
                                        delta.inner.epoch, delta.inner.seq))
    differing = msg.AgentHeartbeat("m1", "r1", CAP, {}, book_version=2,
                                   book_digest=7)
    primary.deliver("agent:m1", differing)
    assert primary.metrics.counter("fm.digest_drift") == 0
    loop.run_until(2.2)
    primary.deliver("agent:m1", differing)
    loop.run_until(2.3)
    assert primary.metrics.counter("fm.digest_drift") == 1
    assert len(full_syncs(agent_probe)) == 1


def test_beat_overtaken_by_the_ack_of_a_later_delta_is_not_drift():
    """A beat sent just before a delta landed can arrive after that
    delta's ack (the edge does not keep order): it differs with nothing in
    flight, and the agent's next beat matches."""
    loop, primary, agent_probe = drift_setup()
    stale = msg.AgentHeartbeat("m1", "r1", CAP, {}, book_version=1,
                               book_digest=7)
    for when in (1.5, 3.5):
        loop.run_until(when)
        primary.deliver("agent:m1", stale)      # differs ...
        loop.run_until(when + 1.0)
        primary.deliver("agent:m1", beat())     # ... and the next matches
    assert primary.metrics.counter("fm.digest_drift") == 0
    assert full_syncs(agent_probe) == []


def test_unacked_full_sync_is_in_flight_until_two_retransmit_ticks():
    """A full sync awaiting its ack is in flight too; one lost in transit
    is not waited for past two retransmit ticks (a gap it leaves is one
    no retransmitted delta fills)."""
    loop, primary, agent_probe = drift_setup()
    stale = msg.AgentHeartbeat("m1", "r1", CAP, {}, book_version=2,
                               book_digest=7)
    for when in (1.2, 1.3):
        loop.run_until(when)
        primary.deliver("agent:m1", stale)
    assert primary.metrics.counter("fm.digest_drift") == 1
    for when in (1.4, 2.5):                   # the push is not acked yet
        loop.run_until(when)
        primary.deliver("agent:m1", stale)
    assert primary.metrics.counter("fm.digest_drift") == 1
    for when in (4.5, 4.6):                   # retransmit ticks at 2 and 4
        loop.run_until(when)
        primary.deliver("agent:m1", stale)
    assert primary.metrics.counter("fm.digest_drift") == 2
    loop.run_until(4.7)
    assert len(full_syncs(agent_probe)) == 2


def test_full_sync_stuck_behind_a_busy_stream_is_drift_after_two_ticks():
    """A lost full sync leaves the agent behind a gap, so no delta sent
    after it is acked either: the deltas the master keeps sending, one a
    beat, do not keep the stream in flight past two retransmit ticks from
    the full sync."""
    loop, primary, agent_probe = drift_setup()
    stale = msg.AgentHeartbeat("m1", "r1", CAP, {}, book_version=2,
                               book_digest=7)
    for when in (1.2, 1.3):
        loop.run_until(when)
        primary.deliver("agent:m1", stale)
    assert primary.metrics.counter("fm.digest_drift") == 1    # pushed, lost
    for when in (2.3, 3.3, 4.3, 5.3):         # retransmit ticks at 2 and 4
        loop.run_until(when - 0.1)
        primary.hub.send_delta("agent:m1", "alloc", msg.AllocationUpdate(()))
        loop.run_until(when)
        primary.deliver("agent:m1", stale)
        # in flight to t = 4; then the beats at 4.3 and 5.3 both differ
        assert primary.metrics.counter("fm.digest_drift") == (
            2 if when == 5.3 else 1)
    loop.run_until(5.4)
    assert len(full_syncs(agent_probe)) == 2


def test_lock_expiry_promotes_standby():
    loop, bus, locks, checkpoint, masters = setup(standby=True)
    masters[0].crash()
    loop.run_until(6.0)   # lease 4s expires
    assert masters[1].is_primary
    assert bus.resolve("fuxi-master") == "fuxi-master-1"


def test_submit_job_checkpoints_hard_state():
    loop, bus, locks, checkpoint, masters = setup()
    loop.run_until(1.0)
    masters[0].deliver("agent:m1", beat())
    masters[0].submit_job("j1", {"type": "dag", "Tasks": {"t": {}}},
                          group="default")
    record = checkpoint.get("app/j1")
    assert record["app_id"] == "j1"
    assert record["description"]["Tasks"] == {"t": {}}


def test_submit_job_launches_am_on_live_agent():
    loop, bus, locks, checkpoint, masters = setup()
    agent_probe = Probe(loop, "agent:m1", bus)
    loop.run_until(1.0)
    masters[0].deliver("agent:m1", beat())
    masters[0].submit_job("j1", {"Tasks": {"t": {}}})
    loop.run_until(1.2)
    launches = agent_probe.of_type(msg.LaunchAppMaster)
    assert launches and launches[0].app_id == "j1"


def test_silent_am_restarted_elsewhere():
    config = FuxiMasterConfig(recovery_window=0.5, heartbeat_timeout=30.0,
                              app_master_timeout=2.0)
    loop, bus, locks, checkpoint, masters = setup(config=config)
    probes = {m: Probe(loop, f"agent:{m}", bus) for m in ("m1", "m2")}
    primary = masters[0]
    loop.run_until(1.0)

    def keep_beating():
        for machine in ("m1", "m2"):
            primary.deliver(f"agent:{machine}", beat(machine))
        if primary.alive:
            loop.call_after(1.0, keep_beating)

    keep_beating()
    primary.submit_job("j1", {"Tasks": {"t": {}}})
    loop.run_until(8.0)   # no AppHeartbeat ever arrives
    launches = [m for p in probes.values()
                for m in p.of_type(msg.LaunchAppMaster)]
    assert len(launches) >= 2
    assert primary.metrics.counter("fm.am_restarts") >= 1


def test_blacklist_report_escalation_disables_machine():
    loop, bus, locks, checkpoint, masters = setup()
    primary = masters[0]
    loop.run_until(1.0)
    for machine in ("m1", "m2", "m3", "m4", "m5"):
        primary.deliver(f"agent:{machine}", beat(machine))
    primary.deliver("app:j1", msg.BlacklistReport("j1", "m1"))
    assert not primary.blacklist.is_disabled("m1")
    primary.deliver("app:j2", msg.BlacklistReport("j2", "m1"))
    assert primary.blacklist.is_disabled("m1")
    assert primary.scheduler.pool.is_disabled("m1")
    assert checkpoint.get("blacklist") is not None


def test_low_health_disables_machine():
    config = FuxiMasterConfig(recovery_window=0.2, health_threshold=0.6,
                              health_grace=2.0, heartbeat_timeout=60.0)
    loop, bus, locks, checkpoint, masters = setup(config=config)
    primary = masters[0]
    loop.run_until(0.5)
    sick = msg.AgentHeartbeat("m1", "r1", CAP, {
        "disk_errors": 100, "load1": 50, "cores": 4, "net_errors": 500})
    primary.deliver("agent:m1", sick)
    loop.run_until(1.0)
    assert not primary.scheduler.pool.is_disabled("m1")
    loop.run_until(3.5)
    primary.deliver("agent:m1", sick)   # still sick past the grace period
    assert primary.scheduler.pool.is_disabled("m1")
    assert primary.metrics.counter("fm.health_disables") == 1


def test_app_exit_clears_books_and_checkpoint():
    loop, bus, locks, checkpoint, masters = setup()
    primary = masters[0]
    loop.run_until(1.0)
    primary.deliver("agent:m1", beat())
    primary.submit_job("j1", {"Tasks": {"t": {}}})
    primary.deliver("app:j1", msg.AppExit("j1"))
    assert checkpoint.get("app/j1") is None


def test_quota_group_definition_survives_failover():
    loop, bus, locks, checkpoint, masters = setup(standby=True)
    masters[0].define_quota_group(
        "gold", min_quota=ResourceVector.of(cpu=100))
    masters[0].crash()
    loop.run_until(6.0)
    new = masters[1]
    assert new.is_primary
    assert "gold" in [g.name for g in new.scheduler.quota.groups()]
