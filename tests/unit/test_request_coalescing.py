"""Unit tests for §3.4 batched request handling (AM-side coalescing)."""

from tests.unit.test_appmaster_actor import RecordingAM, setup
from repro.cluster.lockservice import LockService
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core import messages as msg
from repro.core.appmaster import AppMasterConfig, ApplicationMaster
from repro.core.checkpoint import CheckpointStore
from repro.core.master import FuxiMaster, FuxiMasterConfig
from repro.core.resources import ResourceVector
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

CAP = ResourceVector.of(cpu=400, memory=8192)
SLOT = ResourceVector.of(cpu=100, memory=2048)


def setup_coalescing(window=0.1, machines=2):
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig(latency=0.001,
                                                         jitter=0.0))
    master = FuxiMaster(loop, bus, "fuxi-master-0", LockService(loop),
                        CheckpointStore(),
                        FuxiMasterConfig(recovery_window=0.2,
                                         heartbeat_timeout=1e9,
                                         app_master_timeout=1e9))
    loop.run_until(0.5)
    for i in range(machines):
        master.deliver(f"agent:m{i}", msg.AgentHeartbeat(
            f"m{i}", "r0", CAP, {}))
    am = ApplicationMaster(loop, bus, "a1", AppMasterConfig(
        full_sync_interval=1000.0, coalesce_window=window))
    return loop, master, am


def test_burst_of_requests_sent_as_one_delta():
    loop, master, am = setup_coalescing(window=0.1)
    unit = am.define_unit(1, SLOT)
    before = am.hub.stats.deltas_sent
    for _ in range(10):
        am.request(unit.key, 1)   # "frequently changing resource requests"
    loop.run_until(1.0)
    demand_deltas = am.hub.stats.deltas_sent - before
    assert demand_deltas == 1          # merged compactly
    assert am.held_count(unit.key) + am.outstanding(unit.key) == 10


def test_opposing_deltas_cancel_out():
    loop, master, am = setup_coalescing(window=0.1, machines=1)
    unit = am.define_unit(1, SLOT)
    am.request(unit.key, 6)
    am.request(unit.key, -6)
    loop.run_until(1.0)
    assert master.scheduler.ledger.total_units(unit.key) == 0
    assert master.scheduler.waiting_units_total() == 0


def test_avoid_merges_within_window():
    loop, master, am = setup_coalescing(window=0.1)
    unit = am.define_unit(1, SLOT)
    am.send_avoid(unit.key, ["m0"])
    am.request(unit.key, 2)
    loop.run_until(1.0)
    assert set(am.holdings.get(unit.key, {})) <= {"m1"}


def test_merged_messages_count_only_their_own_deltas():
    """Two units in one window, 3 + 1 deltas: 4 payload items, not each
    unit's message counting all 4 (8)."""
    loop, master, am = setup_coalescing(window=0.1)
    first = am.define_unit(1, SLOT)
    second = am.define_unit(2, SLOT)
    before = am.hub.stats.payload_items_sent
    for _ in range(3):
        am.request(first.key, 1)
    am.request(second.key, 1)
    loop.run_until(1.0)
    assert am.hub.stats.deltas_sent == 4   # two definitions + two merged
    assert am.hub.stats.payload_items_sent - before == 4


def test_separate_windows_send_separate_deltas():
    loop, master, am = setup_coalescing(window=0.05)
    unit = am.define_unit(1, SLOT)
    before = am.hub.stats.deltas_sent
    am.request(unit.key, 1)
    loop.run_until(1.0)    # first window flushes
    am.request(unit.key, 1)
    loop.run_until(2.0)    # second window flushes separately
    assert am.hub.stats.deltas_sent - before == 2


def test_window_zero_sends_immediately():
    loop, master, am = setup_coalescing(window=0.0)
    unit = am.define_unit(1, SLOT)
    before = am.hub.stats.deltas_sent
    for _ in range(3):
        am.request(unit.key, 1)
    assert am.hub.stats.deltas_sent - before == 3


def test_coalescing_preserves_final_outcome_for_monotone_bursts():
    """Same end state with and without batching for additive bursts.

    (Bursts that go negative mid-window legitimately differ: batching lets
    the cancellation land *before* anything is granted — that reduced churn
    is the point of §3.4's merging.)
    """
    results = []
    for window in (0.0, 0.1):
        loop, master, am = setup_coalescing(window=window)
        unit = am.define_unit(1, SLOT)
        am.request(unit.key, 2)
        am.request(unit.key, 3)
        am.request(unit.key, 1)
        loop.run_until(1.0)
        results.append((am.held_count(unit.key), am.outstanding(unit.key),
                        master.scheduler.ledger.total_units(unit.key)))
    assert results[0] == results[1]


def test_batched_cancellation_avoids_grant_churn():
    """A +5/-5 burst inside one window never touches the scheduler."""
    loop, master, am = setup_coalescing(window=0.1)
    unit = am.define_unit(1, SLOT)
    decisions_before = master.scheduler.stats.units_granted
    am.request(unit.key, 5)
    am.request(unit.key, -5)
    loop.run_until(1.0)
    assert master.scheduler.stats.units_granted == decisions_before
    assert am.held_count(unit.key) == 0
