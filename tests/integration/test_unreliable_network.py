"""Integration: the incremental protocol under a hostile transport (§3.1).

"We must ensure the idempotency of the handling of duplicated delta
messages, which could happen as a result of temporary communication
failure" — so we run whole jobs over a bus that duplicates, reorders and
drops messages, and assert correctness still holds.
"""

import pytest

from repro.cluster.network import NetworkConfig
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def hostile(duplicate=0.0, reorder=0.0, drop=0.0):
    return NetworkConfig(latency=0.002, jitter=0.001,
                         duplicate_prob=duplicate, reorder_prob=reorder,
                         reorder_jitter=0.05, drop_prob=drop)


def run_job(cluster, timeout=900):
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=20, reducers=4, map_duration=3.0, reduce_duration=2.0,
        workers_per_task=8))
    assert cluster.run_until_complete([app], timeout=timeout)
    return cluster.job_results[app]


def test_job_completes_with_duplication():
    cluster = make_cluster(network=hostile(duplicate=0.3))
    result = run_job(cluster)
    assert result.success
    assert cluster.bus.messages_duplicated > 0


def test_job_completes_with_reordering():
    cluster = make_cluster(network=hostile(reorder=0.3))
    result = run_job(cluster)
    assert result.success


def test_job_completes_with_drops():
    """Retransmission covers lost deltas."""
    cluster = make_cluster(network=hostile(drop=0.05))
    result = run_job(cluster)
    assert result.success
    assert cluster.bus.messages_dropped > 0


def test_job_completes_with_everything_at_once():
    cluster = make_cluster(network=hostile(duplicate=0.15, reorder=0.2,
                                           drop=0.03))
    result = run_job(cluster, timeout=1200)
    assert result.success


def test_books_consistent_after_hostile_run():
    cluster = make_cluster(network=hostile(duplicate=0.2, reorder=0.2,
                                           drop=0.02))
    run_job(cluster, timeout=1200)
    cluster.run_for(20)   # let retransmissions settle
    scheduler = cluster.primary_master.scheduler
    scheduler.check_conservation()
    assert len(scheduler.ledger) == 0
    for agent in cluster.agents.values():
        assert agent.allocations == {}


def test_duplicates_detected_by_receivers():
    cluster = make_cluster(network=hostile(duplicate=0.4))
    run_job(cluster)
    hubs = [cluster.primary_master.hub]
    hubs.extend(am.hub for am in cluster.app_masters.values())
    hubs.extend(agent.hub for agent in cluster.agents.values())
    dropped = sum(r.duplicates_dropped
                  for hub in hubs for r in hub._receivers.values())
    assert dropped > 0
    assert cluster.bus.messages_duplicated > 0


def test_deterministic_under_same_seed():
    results = []
    for _ in range(2):
        cluster = make_cluster(seed=11, network=hostile(duplicate=0.2,
                                                        reorder=0.2))
        results.append(run_job(cluster).makespan)
    assert results[0] == results[1]


def test_a_worker_whose_registration_is_lost_comes_up_on_its_report():
    """A map worker's WorkerReady is lost: its idle status reports, every
    2 s, must bring it up (it stayed "starting" forever while only its
    WorkerReady could), with its start overhead recorded once."""
    from repro.jobs import worker as wmsg
    cluster = make_cluster()
    bus = cluster.bus
    lost = []
    send, post = bus.send, bus.post

    def lose_first_registration(message) -> bool:
        if (not lost and type(message) is wmsg.WorkerReady
                and ".map." in message.worker_id):
            lost.append(message.worker_id)
            return True
        return False

    def lossy_send(sender, dest, message):
        if not lose_first_registration(message):
            send(sender, dest, message)

    def lossy_post(outbox, sender, dest, message):
        if not lose_first_registration(message):
            post(outbox, sender, dest, message)

    bus.send, bus.post = lossy_send, lossy_post
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=40, reducers=2, map_duration=4.0, reduce_duration=1.0,
        workers_per_task=8))
    cluster.run_until(10.0)
    assert lost
    am = cluster.app_masters[app]
    info = am._workers[lost[0]]
    assert info.state in ("idle", "busy")
    started = len(am._worker_start_overheads)
    assert started == len(am._workers)      # one overhead per worker
    assert cluster.run_until_complete([app], timeout=300)
    result = cluster.job_results[app]
    assert result.success
    assert len(result.worker_start_overheads) >= started
