"""Differential test of the job plane's grid instants: every timer due at
one grid instant fired from one loop event, everything they send held and
sent as one delivery run, and the no-news arrivals folded at their
destinations — against the per-timer plane it replaced
(``per_report_oracle``: a timer event per firing and a delivery event per
message).

Hypothesis chooses seed, cluster shape, policy (all six), transport
(default, jitter-free, lossy, duplicating, reordering, all three) and
faults: a ``FaultPlan.random`` draw with master failures and network
bursts, plus agent restarts and application-master crashes at chosen
instants — some on the grid instants themselves (``k + 0.5`` for the job
masters' timers, ``2k + 0.25`` for the workers' reports).  A crashed AM is
restarted by the master, and the restarted JobMaster recovers from its
snapshot and adopts the workers that report to it.  Both sides must end
with the same ``summary_dict()`` (grant-stream digests and ``events``
included: the two-counter sum is the oracle that no firing was lost or
doubled), the same bus and per-sender counters, the same number of tie-break
sequence numbers taken, the same ``fm.*`` counters, the same job results,
the same AM last-seen stamps in the same order, and the same workers with
the same states and last-seen stamps in every live JobMaster.

``test_..._at_scale`` is the run the change was committed on: 2,000
examples (``pytest -m slow``).
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec
from repro.cluster.faults import AGENT_RESTART, FaultEvent, FaultPlan
from repro.cluster.network import NetworkConfig
from repro.core.policy import known_policies
from repro.sim.events import Event
from repro.sim.grid import GridTimer
from repro.sim.rng import SplitRandom

from tests.properties.per_beat_oracle import drive
from tests.properties.per_report_oracle import (PerReportWorker,
                                                per_report_plane)

DURATION = 30.0
WARM_UP = 3.0

#: the default transport, jitter-free (ties broken by sequence numbers
#: alone), lossy, duplicating, reordering, and all three at once
NETWORKS = (
    {},
    {"jitter": 0.0},
    {"drop_prob": 0.05},
    {"duplicate_prob": 0.1},
    {"reorder_prob": 0.2, "reorder_jitter": 0.01},
    {"duplicate_prob": 0.05, "reorder_prob": 0.1, "drop_prob": 0.03},
)

#: anywhere in the window, or exactly on a grid instant of either phase
instant = st.one_of(
    st.floats(WARM_UP + 1.0, WARM_UP + DURATION - 8.0),
    st.integers(int(WARM_UP) + 1, int(WARM_UP + DURATION) - 8).map(
        lambda k: k + 0.5),
    st.integers(int(WARM_UP) // 2 + 1, int(WARM_UP + DURATION) // 2 - 4).map(
        lambda k: 2 * k + 0.25))

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 20),
    "racks": st.integers(2, 4),
    "machines_per_rack": st.integers(3, 8),
    "policy": st.sampled_from(known_policies()),
    "network": st.sampled_from(NETWORKS),
    "plan_seed": st.integers(0, 2 ** 20),
    "faults": st.integers(0, 6),
    # (when, machine selector) / (when, live-application selector)
    "agent_restarts": st.lists(st.tuples(instant, st.integers(0, 63)),
                               max_size=2),
    "am_crashes": st.lists(st.tuples(instant, st.integers(0, 63)),
                           max_size=3),
})


def machine_names(case) -> list:
    return [f"r{rack:02d}m{index:03d}" for rack in range(case["racks"])
            for index in range(case["machines_per_rack"])]


def fault_plan(case) -> FaultPlan:
    machines = machine_names(case)
    plan = FaultPlan.random(machines, SplitRandom(case["plan_seed"]),
                            faults=case["faults"], start=WARM_UP + 1.0,
                            window=DURATION - 6.0, recover_after=5.0,
                            master_failures=case["faults"] % 2,
                            network_bursts=case["faults"] % 3)
    events = list(plan.events)
    for at, selector in case["agent_restarts"]:
        events.append(FaultEvent(at=round(at, 3), kind=AGENT_RESTART,
                                 machine=machines[selector % len(machines)]))
    events.sort(key=lambda e: (e.at, e.kind, e.machine or ""))
    return FaultPlan(events=events)


def crash_an_app_master(cluster, selector: int) -> None:
    """Crash the selector-th live application master, by app id."""
    live = sorted(app_id for app_id, app in cluster.app_masters.items()
                  if app.alive and not app.finished)
    if live:
        cluster.crash_app_master(live[selector % len(live)])


def observe(case, oracle: bool) -> dict:
    spec = RunSpec(
        racks=case["racks"], machines_per_rack=case["machines_per_rack"],
        concurrent_jobs=10, duration=DURATION, workload_mix="small",
        workload_scale=10, workers_cap=6, policy=case["policy"],
        seed=case["seed"], worker_start_delay=0.5,
        fault_spec=fault_plan(case).to_spec())

    def prepare(cluster) -> None:
        for at, selector in case["am_crashes"]:
            cluster.loop.call_at(round(at, 3), crash_an_app_master, cluster,
                                 selector)

    with per_report_plane() if oracle else contextlib.nullcontext():
        cluster, result = drive(spec, NetworkConfig(**case["network"]),
                                prepare=prepare)
    workers = [actor for name, actor in cluster.bus._actors.items()
               if name.startswith("worker:")]
    assert all(isinstance(worker, PerReportWorker) == oracle
               for worker in workers)
    return {"summary": result.summary_dict(),
            "slowdowns": result.slowdowns, **state(cluster)}


def state(cluster) -> dict:
    """What the two planes must agree on, besides the run summary."""
    bus, loop = cluster.bus, cluster.loop
    return {
        "bus": (bus.messages_sent, bus.messages_delivered,
                bus.messages_dropped, bus.messages_duplicated),
        "senders": {name: state.index for name, state in bus._states.items()},
        "loop": (loop.now, loop._seq,
                 loop.events_executed + loop.events_absorbed),
        "fm": {name: value
               for name, value in cluster.metrics.counters().items()
               if name.startswith("fm.")},
        "results": {app_id: (job.success, job.finished_at,
                             job.instances_finished, job.instances_failed,
                             job.backups_launched)
                    for app_id, job in cluster.job_results.items()},
        "app_seen": [list(master._last_app_seen.items())
                     for master in cluster.masters],
        "workers": {app_id: [(info.worker_id, info.state, info.last_seen)
                             for info in app._workers.values()]
                    for app_id, app in cluster.app_masters.items()
                    if app.alive and hasattr(app, "_workers")},
    }


def check_case(case) -> None:
    grid = observe(case, oracle=False)
    old = observe(case, oracle=True)
    for key in grid:
        assert grid[key] == old[key], key


@settings(max_examples=20, deadline=None)
@given(cases)
def test_grid_instants_match_the_per_timer_plane(case):
    check_case(case)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(cases)
def test_grid_instants_match_the_per_timer_plane_at_scale(case):
    check_case(case)


def test_the_oracle_is_per_timer_and_the_grid_is_not():
    """Guards the differential against comparing a path with itself."""
    case = {"seed": 3, "racks": 2, "machines_per_rack": 4, "policy": "fuxi",
            "network": {}, "plan_seed": 0, "faults": 0,
            "agent_restarts": [], "am_crashes": [(12.5, 0)]}
    spec = RunSpec(racks=2, machines_per_rack=4, concurrent_jobs=4,
                   duration=12.0, workload_mix="small", workload_scale=20,
                   seed=3)
    grid, _ = drive(spec)
    with per_report_plane():
        single, _ = drive(spec)
    assert grid.events_total == single.events_total
    assert grid.loop._seq == single.loop._seq
    # every report, AM heartbeat, retransmit and housekeeping firing and
    # every report and heartbeat delivery is a loop step of the oracle's
    assert (single.loop.events_executed - grid.loop.events_executed
            > 4 * len(single.app_masters))
    for cluster, timer_type in ((grid, GridTimer), (single, Event)):
        live = [app for app in cluster.app_masters.values()
                if app.alive and not app.finished]
        assert live
        assert all(isinstance(app._timers[key], timer_type) for app in live
                   for key in ("am-heartbeat", "housekeeping", "retransmit"))
    check_case(case)
