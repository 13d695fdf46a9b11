"""The job plane on the phase grid: loop-step counts and what the grid
must not change about failure detection.

The counts are exact functions of the code, not timings; CI runs them as
a ``perf-smoke`` step.  ``events_total`` must not move when an optimisation
of the loop claims to be exact (a firing lost or doubled would move it),
and the loop steps pin what the grid instants, outboxes and roll-ups save
against a timer event and a delivery event per firing.
"""

from repro.api import RunSpec, simulate
from repro.jobs.jobmaster import DagJobMaster
from repro.workloads.synthetic import mapreduce_job

from tests.conftest import make_cluster
from tests.properties.per_report_oracle import per_report_plane

#: a 10 x 20 closed loop with jobs, 20 simulated seconds after warm-up
SPEC = RunSpec(racks=10, machines_per_rack=20, concurrent_jobs=20,
               duration=20.0, seed=7)
#: its events: what one event per occurrence executes, on either plane
#: (15,597 while every machine's cold start took a ResyncRequest, an
#: AgentFullState, a pushed full sync and its ack; 14,800 while the bus
#: drew each (sender, dest) edge's delays from a stream of its own — the
#: per-sender streams move every delay, so jobs finish at other instants)
EVENTS_TOTAL = 14_803
#: its loop steps with a timer event per report, AM heartbeat, retransmit
#: and housekeeping firing and a delivery event per report and heartbeat
#: (6,271 with the cold start's round trips, 5,469 with per-edge streams)
PER_TIMER_STEPS = 5_474
#: ... and with one series per grid instant, one delivery run for what
#: its timers send, and the no-news arrivals folded (3,691; 2,887 with
#: per-edge streams)
GRID_STEPS = 2_893


def test_closed_loop_loop_steps_and_events_are_pinned():
    grid = simulate(SPEC).cluster
    with per_report_plane():
        per_timer = simulate(SPEC).cluster
    assert grid.events_total == per_timer.events_total == EVENTS_TOTAL
    assert per_timer.loop.events_executed == PER_TIMER_STEPS
    assert grid.loop.events_executed == GRID_STEPS


def test_a_silent_worker_is_replaced_within_the_timeout_and_one_report():
    """A worker that stops reporting (its process hangs: the agent still
    lists it) is declared dead by housekeeping and its container replaced
    within WORKER_SILENCE_TIMEOUT plus one report interval of falling
    silent, although reports and housekeeping now fire on grid instants."""
    cluster = make_cluster()
    app = cluster.submit_job(mapreduce_job(
        "silent", mappers=12, reducers=1, map_duration=40.0,
        reduce_duration=1.0, workers_per_task=6))
    cluster.run_for(6.3)
    am = cluster.app_masters[app]
    busy = [info for info in am._workers.values() if info.state == "busy"]
    assert busy
    victim = busy[0].worker_id
    worker = cluster.bus.actor(f"worker:{victim}")
    replaced = []

    def on_worker_failed(worker_id, machine, reason):
        replaced.append((cluster.loop.now, worker_id, reason))
        DagJobMaster.on_worker_failed(am, worker_id, machine, reason)

    am.on_worker_failed = on_worker_failed
    silent_at = cluster.loop.now
    worker.cancel_timer("report")        # hung: alive, but reports nothing
    cluster.run_for(12.0)
    mine = [(at, reason) for at, worker_id, reason in replaced
            if worker_id == victim]
    assert mine and mine[0][1] == "crashed"
    assert mine[0][0] - silent_at <= (DagJobMaster.WORKER_SILENCE_TIMEOUT
                                      + worker.report_interval)
    assert victim not in am._workers
    assert cluster.run_until_complete([app], timeout=600)
    assert cluster.job_results[app].success
