"""Differential test of the message path and the job plane: the one-frame
send, the type-keyed dispatch tables, the O(1) housekeeping tests and the
kept TaskMaster counts against the code they replaced
(``per_message_oracle``: ``plan_delays`` + ``call_after``, the
``isinstance`` ladders, the scanning ``_housekeeping`` and counts).

Hypothesis chooses seed, cluster shape, policy, transport (default,
jitter-free, lossy, duplicating, reordering, all three) and faults: a
``FaultPlan.random`` draw that always holds a network burst, plus agent
restarts and application-master crashes (which the master answers with an
AM restart, and the restarted JobMaster with snapshot recovery and worker
adoption) at chosen instants.  Both sides must end with the same
``summary_dict()`` (grant-stream digests and ``events`` included), the
same bus counters, the same per-edge message counters, the same number of
tie-break sequence numbers taken, the same ``fm.*`` counters and the same
job results.

``test_..._at_scale`` is the run the change was committed on: 2,000
examples per policy (``pytest -m slow``).
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec
from repro.cluster.faults import AGENT_RESTART, FaultEvent, FaultPlan
from repro.cluster.network import NetworkConfig
from repro.core.policy import known_policies
from repro.core.resources import ResourceVector
from repro.jobs.spec import BackupSpec, JobSpec, TaskSpec
from repro.sim.rng import SplitRandom

from tests.conftest import make_cluster
from tests.properties.per_beat_oracle import drive
from tests.properties.per_message_oracle import (LadderJobMaster,
                                                 PlanDelaysBus,
                                                 per_message_plane)

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

instant = st.floats(WARM_UP + 1.0, WARM_UP + DURATION - 8.0)

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 20),
    "racks": st.integers(2, 4),
    "machines_per_rack": st.integers(3, 8),
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
                            network_bursts=1)
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


def observe(case, policy: str, oracle: bool) -> dict:
    spec = RunSpec(
        racks=case["racks"], machines_per_rack=case["machines_per_rack"],
        concurrent_jobs=10, duration=DURATION, workload_mix="small",
        workload_scale=10, workers_cap=6, policy=policy,
        seed=case["seed"], worker_start_delay=0.5,
        fault_spec=fault_plan(case).to_spec())

    def prepare(cluster) -> None:
        for at, selector in case["am_crashes"]:
            cluster.loop.call_at(round(at, 3), crash_an_app_master, cluster,
                                 selector)

    with per_message_plane() if oracle else contextlib.nullcontext():
        cluster, result = drive(spec, NetworkConfig(**case["network"]),
                                prepare=prepare)
    assert isinstance(cluster.bus, PlanDelaysBus) == oracle
    return {"summary": result.summary_dict(),
            "slowdowns": result.slowdowns, **state(cluster)}


def state(cluster) -> dict:
    """What the two planes must agree on, besides the run summary."""
    bus, loop = cluster.bus, cluster.loop
    return {
        "bus": (bus.messages_sent, bus.messages_delivered,
                bus.messages_dropped, bus.messages_duplicated),
        "edges": {edge: state[2] for edge, state in bus._edges.items()},
        "loop": (loop.now, loop._seq, loop.events_executed,
                 loop.events_absorbed, loop.pending()),
        "fm": {name: value
               for name, value in cluster.metrics.counters().items()
               if name.startswith("fm.")},
        "results": {app_id: (job.success, job.finished_at,
                             job.instances_finished, job.instances_failed,
                             job.backups_launched)
                    for app_id, job in cluster.job_results.items()},
    }


def check_case(case, policy: str) -> None:
    fast = observe(case, policy, oracle=False)
    old = observe(case, policy, oracle=True)
    for key in fast:
        assert fast[key] == old[key], key


@settings(max_examples=20, deadline=None)
@given(cases, st.sampled_from(known_policies()))
def test_message_path_matches_the_per_message_oracle(case, policy):
    check_case(case, policy)


@pytest.mark.slow
@pytest.mark.parametrize("policy", known_policies())
@settings(max_examples=2000, deadline=None)
@given(case=cases)
def test_message_path_matches_the_per_message_oracle_at_scale(case, policy):
    check_case(case, policy)


def test_backups_match_the_per_message_oracle():
    """The backup pass of ``_housekeeping``, which generated cases do not
    reach (a backup waits for 60 s of normal duration): one slow machine
    and a task whose backup policy fires within seconds."""
    backup = BackupSpec(enabled=True, finished_fraction=0.5,
                        slowdown_factor=1.5, normal_duration=6.0)
    job = JobSpec("straggle", {
        "t": TaskSpec("t", 24, 3.0, ResourceVector.of(cpu=50, memory=2048),
                      workers=24, backup=backup)}, [], [], [])

    def run(oracle: bool) -> dict:
        with per_message_plane() if oracle else contextlib.nullcontext():
            cluster = make_cluster()
            cluster.faults.slow_machine(cluster.topology.machines()[0],
                                        factor=8.0)
            app = cluster.submit_job(job)
            assert cluster.run_until_complete([app], timeout=600)
        return state(cluster)

    fast = run(oracle=False)
    assert fast == run(oracle=True)
    (result,) = fast["results"].values()
    assert result[4] >= 1  # backups launched


def test_the_oracle_runs_the_old_classes_through_recovery(monkeypatch):
    """Guards the differential against comparing a path with itself, and
    against cases that never reach AM recovery or worker adoption."""
    case = {"seed": 0, "racks": 2, "machines_per_rack": 4, "network": {},
            "plan_seed": 1, "faults": 2, "agent_restarts": [(9.0, 3)],
            "am_crashes": [(8.0, 0), (9.3, 1), (10.6, 2)]}
    adopted = []
    adopt = LadderJobMaster._adopt_worker

    def counting(self, message):
        adopted.append(message.worker_id)
        return adopt(self, message)

    with monkeypatch.context() as patch:
        patch.setattr(LadderJobMaster, "_adopt_worker", counting)
        old = observe(case, "fuxi", oracle=True)
    assert old["fm"]["fm.am_restarts"] >= 1
    assert adopted
    check_case(case, "fuxi")
