"""Counts that prove cold start and the recovery push save work; CI runs
them as a ``perf-smoke`` step.

Exact functions of the code, not timings: loop steps, events and messages
of a warm-up, calls into the per-machine registration path, what the
post-recovery push sends, how many collections a build triggers, the
bytes a built cluster holds per machine, and the bytes a closed-loop
window leaves per live job and per live instance.  An agent whose books are
provably empty (``book_version`` 0) registers with its first beat, inside
the master's roll-up, a run of first beats at a time; and the push skips
every machine whose books the rebuilt ledger holds exactly (DESIGN.md §12),
so a cold start takes no per-machine round trip and pushes nothing.
"""

import gc
import linecache
import sys
import tracemalloc

import pytest

from repro.api import ClusterBuilder
from repro.cluster.network import MessageBus
from repro.core import messages as msg
from repro.core.grant import Grant
from repro.core.master import FuxiMaster
from repro.core.protocol import FullSyncEnvelope
from repro.core.scheduler import FuxiScheduler
from repro.core.agent import FuxiAgentConfig
from repro.core.units import UnitKey
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom
from repro.workloads.synthetic import (SyntheticWorkload,
                                       SyntheticWorkloadConfig,
                                       ensure_input_files, mapreduce_job)
from tests.conftest import make_cluster

#: a 10 x 20 cluster's 3-s warm-up at the commit before registration from
#: the beat: 415 loop steps (a step per ResyncRequest and AgentFullState
#: delivery) and 1,808 events ...
PARENT_WARM_UP_STEPS = 415
#: ... now the first beats, their deliveries and the election alone, in
#: steps that do not grow with the machine count
MAX_WARM_UP_STEPS = 15
#: 1,808 - 200 ResyncRequests - 200 AgentFullStates (the parent's t = 3
#: push was delivered after the warm-up)
WARM_UP_EVENTS = 1408
#: bytes ``tracemalloc`` sees per machine after a 2,000-machine build and
#: warm-up, by CPython version: 4,078 / 3,301 / 3,187 / 3,220 (3.10 /
#: 3.11 / 3.12 / 3.13) while every agent built an idle stream hub and the
#: health monitor scored and copied every machine's first sample; 2,984 /
#: 2,379 / 2,280 / 2,297 with lazy hubs and the shared first score (bounds
#: 3,150 / 2,500); 1,949 / 1,439 / 1,415 / 1,424 with shared health
#: samples, slotted machine records, lazy timer / book / worker tables,
#: slotted edge state and a 256-name hash memo; 1,927 / 1,421 / 1,397 /
#: 1,405 with no memo.  numpy adds 59 B (the cohort's delay columns; 1,480
#: on 3.11).  The bounds leave about 5 % of room over the numpy figure.
MAX_BYTES_PER_MACHINE = {(3, 10): 2085, (3, 12): 1530, (3, 13): 1540}.get(
    sys.version_info[:2], 1555)
#: ``tracemalloc`` bytes a 20-sim-s window of 100 paper-mix jobs on 200
#: machines (seed 7) leaves per job still live at its end (60; 40 have
#: finished), by CPython version: everything the window allocated and
#: kept, finished jobs' results and the bus's sender states included.
#: 136,638 / 122,689 / 120,666 / 122,075 (3.10 / 3.11 / 3.12 / 3.13) with
#: unslotted instances, a snapshot record per dispatched instance, pending
#: sets, one-element locality lists, per-unit worker sets and a closure
#: per running instance; 110,527 / 100,680 / 99,680 / 100,576 without
#: them; 97,377 / 86,913 / 86,026 / 86,922 with one bus state per sender
#: instead of per (sender, dest) edge and each task's pending FIFO a
#: cursor until its first requeue.  The bounds leave about 5 % of room.
MAX_BYTES_PER_LIVE_JOB = {(3, 10): 102_200, (3, 12): 90_300,
                          (3, 13): 91_300}.get(sys.version_info[:2],
                                               91_300)
#: ... and the bytes held by the job plane's own lines (``repro/jobs/``)
#: per live instance (1,999): 1,402 / 1,425 / 1,354 / 1,373 before the
#: diet, 1,023 / 923 / 883 / 887 after it, 963 / 851 / 812 / 816 with
#: the pending FIFO a cursor.  About 5 % of room.
MAX_BYTES_PER_LIVE_INSTANCE = {(3, 10): 1011, (3, 12): 853,
                               (3, 13): 857}.get(sys.version_info[:2], 894)
#: bytes per bus sender state of 10,000 new senders, names made
#: beforehand: 136.5 (145.3 on 3.10) for the dict slot, the slotted
#: ``SenderState`` and its key and epsilon.  A state per (sender, dest)
#: edge measured 201 an edge with its tuple key, and the window above
#: makes about 5.8 edges per sender.  About 5 % of room.
MAX_BYTES_PER_SENDER = {(3, 10): 153}.get(sys.version_info[:2], 143)


def small_cluster():
    return ClusterBuilder(racks=10, machines_per_rack=20).build(
        warm_up=False)


def record_traffic(cluster):
    """Count the messages sent by type, and the alloc full syncs, whether
    sent one by one or in a fan-out run; note each run of alloc full syncs
    as its destinations and the events it put on the loop."""
    bus, loop = cluster.bus, cluster.loop
    counts = {"alloc_full": 0}
    pushes = []
    send_run, send = bus.send_run, bus.send

    def is_alloc_full(message):
        return (isinstance(message, msg.Envelope)
                and isinstance(message.inner, FullSyncEnvelope)
                and message.inner.stream.endswith(":alloc"))

    def recording_run(group, batch):
        messages = getattr(batch, "messages", ())
        fulls = [message for message in messages if is_alloc_full(message)]
        before = loop.pending()
        send_run(group, batch)
        if fulls:
            counts["alloc_full"] += len(fulls)
            pushes.append((sorted(group.dests), loop.pending() - before))

    def recording_send(sender, dest, message):
        name = type(message).__name__
        counts[name] = counts.get(name, 0) + 1
        if is_alloc_full(message):
            counts["alloc_full"] += 1
        send(sender, dest, message)

    bus.send_run, bus.send = recording_run, recording_send
    return counts, pushes


def test_warm_up_takes_at_least_one_loop_step_per_machine_fewer():
    """Than the parent's 415 steps: the ResyncRequest and AgentFullState
    deliveries are gone, and no step is left per machine at all."""
    cluster = small_cluster()
    cluster.warm_up()
    assert len(cluster.agents) == 200
    assert cluster.events_total == WARM_UP_EVENTS
    assert cluster.loop.events_executed <= MAX_WARM_UP_STEPS
    assert PARENT_WARM_UP_STEPS - MAX_WARM_UP_STEPS >= 2 * len(cluster.agents)


def test_cold_start_registers_every_machine_inside_the_roll_up(monkeypatch):
    """No first beat reaches the per-message handler, and no machine
    enters the pool one ``add_machine`` at a time: each run of first
    beats is one columnar registration."""
    calls = {"handler": 0, "add_machine": 0, "chunks": []}
    handler = FuxiMaster._handle_agent_heartbeat
    add_machine = FuxiScheduler.add_machine
    register = FuxiMaster._register_first_beats

    def counting_handler(self, sender, beat):
        calls["handler"] += 1
        return handler(self, sender, beat)

    def counting_add_machine(self, *args, **kwargs):
        calls["add_machine"] += 1
        return add_machine(self, *args, **kwargs)

    def recording_register(self, machines, *columns):
        calls["chunks"].append(len(machines))
        return register(self, machines, *columns)

    monkeypatch.setattr(FuxiMaster, "_handle_agent_heartbeat",
                        counting_handler)
    monkeypatch.setattr(FuxiScheduler, "add_machine", counting_add_machine)
    monkeypatch.setattr(FuxiMaster, "_register_first_beats",
                        recording_register)
    cluster = small_cluster()
    cluster.warm_up()
    assert cluster.primary_master.scheduler.pool.machine_count() == 200
    assert calls["handler"] == 0
    assert calls["add_machine"] == 0
    assert sum(calls["chunks"]) == 200


def held_by_the_build(before, after, where: str = "") -> int:
    """Bytes ``after`` holds over ``before`` on the lines of files whose
    path contains ``where``, less the growth of the interpreter's
    interned-string table.  That table is the process's, and it doubles
    (1.9 MB once it holds a test run's names) in whichever build fills
    it.  Its growth lands on the lines that call ``_intern(``, which are
    left out: ``Actor.__init__``'s allocates nothing else, since the name
    is made before; a worker address the JobMaster interns is left out
    with it."""
    def interning(frame) -> bool:
        return "_intern(" in linecache.getline(frame.filename, frame.lineno)
    return sum(stat.size_diff
               for stat in after.compare_to(before, "lineno")
               if where in stat.traceback[0].filename
               and not interning(stat.traceback[0]))


def test_a_built_cluster_holds_few_bytes_per_machine():
    racks, per_rack = 20, 100
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        cluster = ClusterBuilder(racks=racks,
                                 machines_per_rack=per_rack).build()
        gc.collect()
        held = held_by_the_build(before, tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert len(cluster.agents) == racks * per_rack
    per_machine = held / (racks * per_rack)
    assert per_machine <= MAX_BYTES_PER_MACHINE, per_machine


def test_a_sender_state_holds_few_bytes():
    bus = MessageBus(EventLoop(), SplitRandom(7))
    senders = [f"sender-gate:{index}" for index in range(10_000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sender in senders:
            bus._sender(sender)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(bus._states) == len(senders)
    per_sender = held / len(senders)
    assert per_sender <= MAX_BYTES_PER_SENDER, per_sender


def test_a_built_idle_agent_holds_no_container():
    """Its books, worker tables and timer dicts are one shared read-only
    mapping until their first write, and it has no hub: no dict, list or
    set of its own."""
    cluster = small_cluster()
    cluster.warm_up()
    owned = sum(type(value) in (dict, list, set)
                for agent in cluster.agents.values()
                for value in vars(agent).values())
    assert owned == 0
    assert all(agent._hub is None for agent in cluster.agents.values())


def test_cold_start_sends_no_round_trip_and_no_push():
    cluster = small_cluster()
    counts, pushes = record_traffic(cluster)
    cluster.warm_up()
    cluster.run_for(2.0)              # past the t = 3 window and its acks
    master = cluster.primary_master
    assert not master.recovering
    assert master.scheduler.pool.machine_count() == 200
    assert counts.get("ResyncRequest", 0) == 0
    assert counts.get("AgentFullState", 0) == 0
    assert counts["alloc_full"] == 0 and pushes == []
    assert not any(kind == "alloc" for _, kind in master.hub._senders)
    assert not any(agent.hub._receivers for agent in cluster.agents.values())


def test_post_recovery_push_schedules_one_series():
    """A failover with grants on the books: the push reaches exactly the
    machines whose report the rebuilt ledger does not hold (here, books
    carrying a unit no application master reports), in one run."""
    cluster = small_cluster()
    cluster.warm_up()
    cluster.submit_job(mapreduce_job("wc", mappers=400, reducers=1,
                                     map_duration=30.0))
    cluster.run_for(4.0)
    old = cluster.primary_master
    holding = sorted({machine for _, machine, _ in old.scheduler.ledger.entries()})
    idle = sorted(set(cluster.agents) - set(holding))
    assert holding and idle
    ghost = UnitKey("no-such-app", 0)
    differing = [holding[0], idle[0]]
    cluster.crash_primary_master()
    for machine in differing:
        cluster.agents[machine]._apply_grant(Grant(ghost, machine, 1))
    counts, pushes = record_traffic(cluster)
    cluster.run_for(10.0)             # lease expiry + the recovery window
    new = cluster.primary_master
    assert new is not old and not new.recovering
    # one run to the differing machines, one event on the loop for it
    assert pushes == [(sorted(f"agent:{machine}" for machine in differing), 1)]
    assert counts["alloc_full"] == len(differing)
    for machine, agent in cluster.agents.items():
        assert agent.allocation_books() == new.alloc_view(machine), machine
    assert new.metrics.counter("fm.digest_drift") == 0


def test_a_new_term_reaches_an_agent_the_push_skipped():
    """fm-0 -> fm-1 -> fm-0 with every push skipped: the agents still hold
    fm-0's first-term stream position, and the second term's first delta
    (seq 1) must not be dropped as a duplicate of it."""
    cluster = make_cluster(racks=1, machines_per_rack=2)
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=160, reducers=1, map_duration=1.5, reduce_duration=1.0))
    cluster.run_for(4.0)
    first = cluster.primary_master
    assert first.name == "fuxi-master-0"
    positions = {machine: agent.hub._receivers[
        f"fuxi-master-0>agent:{machine}:alloc"] for machine, agent
        in cluster.agents.items()}
    assert all(receiver.last_seq >= 1 for receiver in positions.values())
    first_epoch = {receiver.epoch for receiver in positions.values()}
    cluster.crash_primary_master()
    cluster.run_for(10.0)
    assert cluster.primary_master.name == "fuxi-master-1"
    cluster.restart_master("fuxi-master-0")
    cluster.run_for(1.0)
    cluster.crash_primary_master()
    counts, pushes = record_traffic(cluster)
    cluster.run_for(10.0)
    second = cluster.primary_master
    assert second is first and second.failovers == 2
    assert counts["alloc_full"] == 0           # every push skipped
    assert cluster.run_until_complete([app], timeout=200)
    for machine, agent in cluster.agents.items():
        receiver = agent.hub._receivers[f"fuxi-master-0>agent:{machine}:alloc"]
        assert receiver.epoch > max(first_epoch) and receiver.last_seq >= 1
        assert agent.allocation_books() == second.alloc_view(machine)
    assert second.metrics.counter("fm.digest_drift") == 0


def test_build_and_warm_up_trigger_no_automatic_collection():
    """Eleven young collections at the commit before the pause, each
    re-scanning the growing heap.  Now none runs inside; the one young
    collection the pause owes runs at the first allocation after it ends,
    still inside ``build()``'s return."""
    assert gc.isenabled()
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        cluster = ClusterBuilder(racks=10, machines_per_rack=20).build()
    finally:
        gc.callbacks.remove(record)
    assert len(started) <= 1
    assert gc.isenabled()
    assert cluster.events_total == WARM_UP_EVENTS


@pytest.fixture(scope="module")
def closed_loop_window():
    """A 200-machine cluster, then 100 paper-mix jobs submitted and run
    for 20 sim-s under ``tracemalloc``: the cluster, its live jobs, the
    two snapshots around the window and how many names the window
    unregistered (one int is all the count holds)."""
    cluster = ClusterBuilder(racks=10, machines_per_rack=20,
                             machine_cpu=440.0, machine_memory=8 * 2048.0,
                             seed=7, agent_config=FuxiAgentConfig(
                                 worker_start_delay=2.0)).build()
    workload = SyntheticWorkload(
        SyntheticWorkloadConfig(concurrent_jobs=100, workers_cap=12,
                                mix="paper"), cluster.rng)
    bus, unregistered = cluster.bus, [0]
    unregister = bus.unregister

    def counting_unregister(name):
        unregistered[0] += 1
        unregister(name)

    bus.unregister = counting_unregister
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(100):
            job = workload.next_job()
            ensure_input_files(cluster.blockstore, job)
            cluster.submit_job(
                job, description_overrides={"am_start_delay": 0.5})
        cluster.run_for(20.0)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        del bus.unregister
    live = [master for master in cluster.app_masters.values()
            if master.alive and not master.finished]
    return cluster, live, before, after, unregistered[0]


def test_a_live_job_holds_few_bytes(closed_loop_window):
    cluster, live, before, after, _ = closed_loop_window
    assert len(cluster.job_results) == 40 and len(live) == 60
    per_job = held_by_the_build(before, after) / len(live)
    assert per_job <= MAX_BYTES_PER_LIVE_JOB, per_job


def test_the_bus_holds_a_state_only_for_registered_senders(
        closed_loop_window):
    """Workers stopped in the window take their sender state with them:
    every state left names a registered actor, so none names one of the
    hundreds of workers unregistered."""
    cluster, live, before, after, unregistered = closed_loop_window
    bus = cluster.bus
    assert unregistered > 100
    assert len(bus._states) <= len(bus._actors)
    assert set(bus._states) <= set(bus._actors)


def test_a_live_instance_holds_few_bytes(closed_loop_window):
    cluster, live, before, after, _ = closed_loop_window
    instances = sum(len(task.instances) for master in live
                    for task in master.task_masters.values())
    assert instances == 1999
    per_instance = (held_by_the_build(before, after, "/repro/jobs/")
                    / instances)
    assert per_instance <= MAX_BYTES_PER_LIVE_INSTANCE, per_instance
