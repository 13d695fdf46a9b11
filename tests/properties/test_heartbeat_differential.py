"""Differential tests of the heartbeat plane and the recovery push.

Two oracles (``per_beat_oracle``), one driver, the same generated cases:

- *per beat*: one timer + send + delivery event + ``handle_message`` per
  beat, and one message per machine in the post-recovery push, against
  cohort timers, delivery runs, the master's roll-up, first-beat runs and
  the fan-out push;
- *first beat*: the commit before first-beat runs — cohort beats, but an
  event of its own per immediate beat and a message per machine in the
  push — against first-beat runs and the fan-out push.  Their tie-break
  sequence numbers are taken in the same places, so this one also
  requires the same ``loop._seq``.

Hypothesis chooses seed, cluster shape, policy, transport (with and without
jitter, duplication, reordering, loss) and a fault plan — a
``FaultPlan.random`` draw with master failures, mutated by the fuzzer's
operators, plus faults pinned to exact beat instants (k.0 and k.0 + 1 ms):
agent and machine restarts give first-beat runs of one, master failures
push mid-run.  Both sides must end with the same ``summary_dict()``
(grant-stream digests and ``events`` included: the two-counter sum is the
oracle that no beat was lost or doubled), the same bus and per-edge
counters, the same ``fm.*`` counters, the same last-seen stamps in the same
order, and the same agent books.

Each ran once at 2,000 examples (per policy, for the first-beat oracle)
with no counter-example before it was committed; the committed budget
keeps tier-1 short, and the ``test_..._at_scale`` tests are those runs
(``pytest -m slow``).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunSpec
from repro.chaos.fuzz import MutationContext, mutate_plan
from repro.cluster.faults import (AGENT_RESTART, MACHINE_RESTART,
                                  MASTER_FAILURE, MASTER_RESTART,
                                  NETWORK_BURST, NODE_DOWN, FaultEvent,
                                  FaultPlan)
from repro.cluster.network import NetworkConfig
from repro.core.policy import known_policies
from repro.sim.rng import SplitRandom

from tests.properties.per_beat_oracle import (drive, first_beat_agents,
                                              per_beat_agents)

DURATION = 30.0
WARM_UP = 3.0

#: transports: the default, no jitter (arrival ties broken by the reserved
#: sequence numbers alone), lossy, and the two the cohort must not batch
NETWORKS = (
    {},
    {"jitter": 0.0},
    {"drop_prob": 0.05},
    {"jitter": 0.02, "drop_prob": 0.02},
    {"duplicate_prob": 0.1},
    {"reorder_prob": 0.2, "reorder_jitter": 0.01},
    {"duplicate_prob": 0.05, "reorder_prob": 0.1, "drop_prob": 0.03},
)

#: what a pinned fault does at a beat instant, by selector
PINNED_KINDS = (AGENT_RESTART, NODE_DOWN, MACHINE_RESTART, NETWORK_BURST,
                MASTER_FAILURE)

pinned_fault = st.tuples(
    st.sampled_from(PINNED_KINDS),
    st.integers(4, 26),            # the beat k the fault is pinned to
    st.sampled_from((0.0, 0.001)),  # exactly at it, or 1 ms (mid-flight)
    st.integers(0, 71),            # machine selector
)

cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2 ** 20),
    "racks": st.integers(2, 6),
    "machines_per_rack": st.integers(3, 12),
    "policy": st.sampled_from(known_policies()),
    "network": st.sampled_from(NETWORKS),
    "plan_seed": st.integers(0, 2 ** 20),
    "faults": st.integers(0, 6),
    "mutations": st.integers(0, 3),
    "pinned": st.lists(pinned_fault, max_size=4),
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
    rng = random.Random(case["plan_seed"])
    ctx = MutationContext(machines=machines, horizon=WARM_UP + DURATION,
                          recover_after=5.0)
    for _ in range(case["mutations"]):
        plan = mutate_plan(plan, rng, ctx)
    events = list(plan.events)
    for kind, beat, offset, selector in case["pinned"]:
        at = beat + offset
        machine = machines[selector % len(machines)]
        if kind == NETWORK_BURST:
            events.append(FaultEvent(at=at, kind=kind, duration=2.5,
                                     drop_prob=0.2, extra_latency=0.03))
        elif kind == MASTER_FAILURE:
            events.append(FaultEvent(at=at, kind=kind))
            events.append(FaultEvent(at=at + 5.0, kind=MASTER_RESTART))
        else:
            events.append(FaultEvent(at=at, kind=kind, machine=machine))
            if kind == NODE_DOWN:
                # back up exactly on a later beat instant
                events.append(FaultEvent(at=at + 4.0, kind=MACHINE_RESTART,
                                         machine=machine))
    events.sort(key=lambda e: (e.at, e.kind, e.machine or ""))
    return FaultPlan(events=events).shifted(0.0)


def observe(case, oracle=None) -> dict:
    spec = RunSpec(
        racks=case["racks"], machines_per_rack=case["machines_per_rack"],
        concurrent_jobs=12, duration=DURATION, workload_mix="small",
        workload_scale=10, workers_cap=8, policy=case["policy"],
        seed=case["seed"], worker_start_delay=0.5,
        fault_spec=fault_plan(case).to_spec())
    cluster, result = drive(spec, NetworkConfig(**case["network"]),
                            oracle=oracle)
    bus = cluster.bus
    now = cluster.loop.now
    return {
        "summary": result.summary_dict(),
        "now": now,
        "events": cluster.events_total,
        "seq": cluster.loop._seq,
        "bus": (bus.messages_sent, bus.messages_delivered,
                bus.messages_dropped, bus.messages_duplicated),
        "edges": {edge: state[2] for edge, state in bus._edges.items()},
        "fm": {name: value
               for name, value in cluster.metrics.counters().items()
               if name.startswith("fm.")},
        # every name in the column, in insertion order, with its stamp
        "seen": [[(machine, master._last_agent_seen.get(machine))
                  for machine in master._last_agent_seen.stale(now + 1.0,
                                                               0.0)]
                 for master in cluster.masters],
        "books": {machine: (agent.alive, agent.allocation_books(),
                            agent._book_version, agent._book_digest)
                  for machine, agent in cluster.agents.items()},
        "health": {master.name: {machine: master.health.score(machine)
                                 for machine in cluster.agents}
                   for master in cluster.masters},
    }


def check_case(case, oracle) -> None:
    batched = observe(case)
    old = observe(case, oracle)
    # a per-agent timer takes a sequence number per beat where a cohort
    # takes one per firing; the first-beat oracle takes them where we do
    skip = {"seq"} if oracle is per_beat_agents else set()
    for key in batched.keys() - skip:
        assert batched[key] == old[key], key


@settings(max_examples=20, deadline=None)
@given(cases)
def test_cohort_plane_matches_the_per_beat_plane(case):
    check_case(case, per_beat_agents)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(cases)
def test_cohort_plane_matches_the_per_beat_plane_at_scale(case):
    check_case(case, per_beat_agents)


@settings(max_examples=20, deadline=None)
@given(cases)
def test_first_beat_runs_and_push_match_one_message_each(case):
    check_case(case, first_beat_agents)


@pytest.mark.slow
@pytest.mark.parametrize("policy", known_policies())
@settings(max_examples=2000, deadline=None)
@given(case=cases)
def test_first_beat_runs_and_push_match_one_message_each_at_scale(case,
                                                                  policy):
    check_case({**case, "policy": policy}, first_beat_agents)


def test_the_oracle_is_per_beat_and_the_cohort_is_not():
    """Guards the differentials against comparing a path with itself."""
    case = {"seed": 3, "racks": 2, "machines_per_rack": 4, "policy": "fuxi",
            "network": {}, "plan_seed": 0, "faults": 0, "mutations": 0,
            "pinned": []}
    spec = RunSpec(racks=2, machines_per_rack=4, concurrent_jobs=2,
                   duration=6.0, workload_mix="small", workload_scale=20,
                   seed=3)
    batched, _ = drive(spec)
    single, _ = drive(spec, oracle=per_beat_agents)
    first, _ = drive(spec, oracle=first_beat_agents)
    assert batched.events_total == single.events_total == first.events_total
    assert single.loop.events_absorbed == 0
    assert batched.loop.events_absorbed > 0
    assert all("heartbeat" in agent._timers
               for agent in single.agents.values())
    assert not any("heartbeat" in agent._timers
                   for agent in batched.agents.values())
    # per machine: its first beat, that beat's delivery and its push
    # delivery are loop steps of their own in the first-beat oracle (the
    # batches' runs may split where a job's messages land among them)
    machines = len(batched.agents)
    assert first.loop._seq == batched.loop._seq
    assert (first.loop.events_executed - batched.loop.events_executed
            >= 2 * machines)
    check_case(case, per_beat_agents)
    check_case(case, first_beat_agents)
