"""Counts that prove the bulk set-up saves work; CI runs them as a
``perf-smoke`` step.

Exact functions of the code, not timings: loop steps and events of a
warm-up, what the post-recovery push puts on the loop, and how many
collections a build triggers.  The constants were measured at the commit
before first-beat runs and fan-out pushes: ``events_total`` must not move
(an occurrence lost or doubled by the batching would move it), loop steps
must fall by at least one per machine.
"""

import gc

from repro.api import ClusterBuilder
from repro.core import messages as msg
from repro.core.protocol import FullSyncEnvelope

#: a 10 x 20 cluster's 3-s warm-up at the commit before first-beat runs:
#: per machine a first-beat event, its delivery, the ResyncRequest and the
#: AgentFullState (plus the election, the timers and the t = 3 push)
PARENT_WARM_UP_STEPS = 813
#: ... and its events_total, which batching must keep
WARM_UP_EVENTS = 1808


def small_cluster():
    return ClusterBuilder(racks=10, machines_per_rack=20).build(
        warm_up=False)


def test_warm_up_takes_at_least_one_loop_step_per_machine_fewer():
    cluster = small_cluster()
    cluster.warm_up()
    machines = len(cluster.agents)
    assert cluster.events_total == WARM_UP_EVENTS
    assert cluster.loop.events_executed <= PARENT_WARM_UP_STEPS - machines


def test_post_recovery_push_schedules_one_series():
    cluster = small_cluster()
    cluster.run_for(2.5)
    master = cluster.primary_master
    assert master.recovering
    bus, loop = cluster.bus, cluster.loop
    runs, full_syncs = [], []
    send_run, send = bus.send_run, bus.send

    def recording_run(group, batch):
        before = loop.pending()
        send_run(group, batch)
        runs.append((group.dest, len(group.senders), loop.pending() - before))

    def recording_send(sender, dest, message):
        if (isinstance(message, msg.Envelope)
                and isinstance(message.inner, FullSyncEnvelope)):
            full_syncs.append(dest)
        send(sender, dest, message)

    bus.send_run, bus.send = recording_run, recording_send
    cluster.run_for(0.5)                     # the window closes at t = 3
    assert not master.recovering
    fan_outs = [run for run in runs if run[0] is None]
    assert fan_outs == [(None, len(cluster.agents), 1)]
    assert full_syncs == []


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
