"""Property tests for the locality tree's §3.3 ordering rules."""

from hypothesis import given, settings, strategies as st

from repro.core.locality import CLUSTER_NODE, REREAD, LocalityTree
from repro.core.request import LocalityLevel
from repro.core.units import UnitKey

MACHINES = {"m1": "r1", "m2": "r1", "m3": "r2"}
LEVEL_RANK = {LocalityLevel.MACHINE: 0, LocalityLevel.RACK: 1,
              LocalityLevel.CLUSTER: 2}

entry_strategy = st.tuples(
    st.integers(min_value=0, max_value=9),          # app index
    st.integers(min_value=1, max_value=5),          # priority class
    st.integers(min_value=0, max_value=3),          # machine hint count
    st.integers(min_value=0, max_value=3),          # rack hint count
    st.integers(min_value=1, max_value=8))          # total


def build_tree(entries):
    tree = LocalityTree(dict(MACHINES))
    demands = {}
    for seq, (app, priority, m_hint, r_hint, total) in enumerate(entries):
        key = UnitKey(f"app{app}", 1)
        if key in demands:
            continue  # one demand per app for clarity
        machine_hints = {"m1": min(m_hint, total)} if m_hint else {}
        rack_hints = {"r1": min(r_hint, total)} if r_hint else {}
        demands[key] = {
            "priority": priority,
            "seq": seq,
            "machine": machine_hints,
            "rack": rack_hints,
            "total": total,
        }
        tree.index(key, priority, seq, machine_hints, rack_hints, total)
    return tree, demands


def drain_order(tree, demands, machine="m1"):
    """Candidates in yielded order, consuming each fully as it appears."""
    remaining = {k: dict(total=d["total"], machine=dict(d["machine"]),
                         rack=dict(d["rack"])) for k, d in demands.items()}

    def wants(key, level, name):
        state = remaining.get(key)
        if state is None or state["total"] <= 0:
            return 0
        if level is LocalityLevel.MACHINE:
            return min(state["machine"].get(name, 0), state["total"])
        if level is LocalityLevel.RACK:
            return min(state["rack"].get(name, 0), state["total"])
        return state["total"]

    order = []
    for key, level in tree.candidates_for_machine(machine, wants):
        order.append((key, level))
        remaining[key]["total"] = 0
    return order


def walk_order(tree, demands, machine="m1"):
    """:func:`drain_order` through the machine-event walk: each head is
    consumed fully, then re-read."""
    remaining = {k: d["total"] for k, d in demands.items()}

    def classify(key, level, name):
        if remaining.get(key, 0) <= 0:
            return 0
        hints = demands[key]["machine" if level is LocalityLevel.MACHINE
                             else "rack"]
        if level is LocalityLevel.CLUSTER:
            return remaining[key]
        return min(hints.get(name, 0), remaining[key])

    order = []
    walk = tree.walk(machine, classify)
    head = walk.send(None)
    while head is not None:
        order.append(head[:2])
        remaining[head[0]] = 0
        head = walk.send(REREAD)
    walk.close()
    return order


@settings(max_examples=100, deadline=None)
@given(st.lists(entry_strategy, min_size=1, max_size=10),
       st.sampled_from(sorted(MACHINES)))
def test_walk_serves_in_the_candidate_order(entries, machine):
    tree, demands = build_tree(entries)
    twin, _ = build_tree(entries)
    assert walk_order(tree, demands, machine) == drain_order(twin, demands,
                                                             machine)


@settings(max_examples=100, deadline=None)
@given(st.lists(entry_strategy, min_size=1, max_size=10))
def test_candidates_sorted_by_priority_then_level_then_fifo(entries):
    tree, demands = build_tree(entries)
    order = drain_order(tree, demands)
    keys_order = [
        (demands[key]["priority"], LEVEL_RANK[level], demands[key]["seq"])
        for key, level in order
    ]
    assert keys_order == sorted(keys_order)


@settings(max_examples=100, deadline=None)
@given(st.lists(entry_strategy, min_size=1, max_size=10))
def test_every_wanting_demand_is_yielded_exactly_once(entries):
    tree, demands = build_tree(entries)
    order = drain_order(tree, demands)
    yielded = [key for key, _ in order]
    assert len(yielded) == len(set(yielded))
    wanting = {key for key, d in demands.items() if d["total"] > 0}
    assert set(yielded) == wanting


@settings(max_examples=60, deadline=None)
@given(st.lists(entry_strategy, min_size=1, max_size=10))
def test_machine_level_yield_only_for_hinted_machine(entries):
    tree, demands = build_tree(entries)
    order = drain_order(tree, demands, machine="m3")   # rack r2, no hints
    for key, level in order:
        # nothing hints m3 or r2, so everything must come from the cluster
        assert level is LocalityLevel.CLUSTER


@settings(max_examples=60, deadline=None)
@given(st.lists(entry_strategy, min_size=1, max_size=10),
       st.integers(min_value=0, max_value=9))
def test_removed_demand_never_yielded(entries, victim_app):
    tree, demands = build_tree(entries)
    victim = UnitKey(f"app{victim_app}", 1)
    tree.remove(victim)
    order = drain_order(tree, demands)
    assert victim not in [key for key, _ in order]
