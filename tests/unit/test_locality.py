"""Unit tests for the locality tree's ordering rules (paper §3.3), its
sorted-list queues and the machine-event walk."""

from repro.core.locality import PASS, REREAD, LocalityTree, _Queue
from repro.core.request import LocalityLevel
from repro.core.units import UnitKey

A = UnitKey("a", 1)
B = UnitKey("b", 1)
C = UnitKey("c", 1)


def make_tree():
    tree = LocalityTree({"m1": "r1", "m2": "r1", "m3": "r2"})
    return tree


def drain(tree, machine, wants):
    """Collect candidate order, consuming each candidate fully."""
    result = []
    remaining = dict(wants)

    def wants_fn(unit_key, level, name):
        return remaining.get(unit_key, 0)

    for unit_key, level in tree.candidates_for_machine(machine, wants_fn):
        result.append((unit_key, level))
        remaining[unit_key] = 0
    return result


def test_priority_orders_candidates():
    tree = make_tree()
    tree.index(A, priority=200, seq=1, machine_hints={}, rack_hints={}, total=5)
    tree.index(B, priority=100, seq=2, machine_hints={}, rack_hints={}, total=5)
    order = drain(tree, "m1", {A: 5, B: 5})
    assert [u for u, _ in order] == [B, A]


def test_fifo_within_same_priority():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={}, rack_hints={}, total=5)
    tree.index(B, priority=100, seq=2, machine_hints={}, rack_hints={}, total=5)
    order = drain(tree, "m1", {A: 5, B: 5})
    assert [u for u, _ in order] == [A, B]


def test_machine_waiters_beat_rack_and_cluster_at_equal_priority():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={}, rack_hints={}, total=5)
    tree.index(B, priority=100, seq=2, machine_hints={"m1": 2},
               rack_hints={}, total=2)
    tree.index(C, priority=100, seq=3, machine_hints={},
               rack_hints={"r1": 2}, total=2)
    order = drain(tree, "m1", {A: 5, B: 2, C: 2})
    assert order[0] == (B, LocalityLevel.MACHINE)
    assert order[1] == (C, LocalityLevel.RACK)
    assert order[2] == (A, LocalityLevel.CLUSTER)


def test_higher_priority_beats_locality_precedence():
    """Priority is the principal consideration (§3.3)."""
    tree = make_tree()
    tree.index(A, priority=50, seq=5, machine_hints={}, rack_hints={}, total=5)
    tree.index(B, priority=100, seq=1, machine_hints={"m1": 2},
               rack_hints={}, total=2)
    order = drain(tree, "m1", {A: 5, B: 2})
    assert [u for u, _ in order] == [A, B]


def test_only_machines_path_queues_consulted():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={"m3": 2},
               rack_hints={}, total=2)
    # m3 is in r2; freeing resources on m1 (r1) must not serve A's
    # machine/rack entries... but A also waits at cluster level.
    order = drain(tree, "m1", {A: 2})
    assert order == [(A, LocalityLevel.CLUSTER)]


def test_stale_entries_dropped_lazily():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={}, rack_hints={}, total=5)
    order = drain(tree, "m1", {A: 0})   # demand vanished
    assert order == []
    assert tree.waiting_anywhere() == 0


def test_remove_clears_everywhere():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={"m1": 1},
               rack_hints={"r1": 1}, total=3)
    tree.remove(A)
    assert drain(tree, "m1", {A: 3}) == []


def test_reindex_after_partial_consume():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={}, rack_hints={}, total=5)
    seen = []
    remaining = {A: 5}

    def wants_fn(unit_key, level, name):
        return remaining.get(unit_key, 0)

    iterator = tree.candidates_for_machine("m1", wants_fn)
    unit_key, _ = next(iterator)
    seen.append(unit_key)
    remaining[A] = 2
    tree.index(A, priority=100, seq=1, machine_hints={}, rack_hints={}, total=2)
    unit_key, _ = next(iterator)
    seen.append(unit_key)
    remaining[A] = 0
    assert seen == [A, A]


def test_queue_sizes_reporting():
    tree = make_tree()
    tree.index(A, priority=100, seq=1, machine_hints={"m1": 1},
               rack_hints={"r2": 1}, total=4)
    sizes = tree.queue_sizes()
    assert sizes["m1"] == 1
    assert sizes["r2"] == 1
    assert sizes[""] == 1


def test_duplicate_index_is_single_entry():
    tree = make_tree()
    for _ in range(5):
        tree.index(A, priority=100, seq=1, machine_hints={}, rack_hints={},
                   total=3)
    order = drain(tree, "m1", {A: 3})
    assert order == [(A, LocalityLevel.CLUSTER)]


def test_unknown_machine_maps_to_cluster_rack():
    tree = LocalityTree()
    assert tree.rack_of("mystery") == ""


# ----------------------- the sorted-list queue ----------------------- #

D = UnitKey("d", 1)


def queued(queue):
    return queue.entries[queue.offset:]


def test_push_lands_at_or_after_the_offset():
    queue = _Queue()
    queue.push(100, 1, A)
    queue.push(100, 3, C)
    queue.pop()                      # A consumed: offset 1
    queue.push(50, 2, B)             # sorts before A, but A is gone
    queue.push(200, 4, D)
    assert queue.offset == 1
    assert queued(queue) == [(50, 2, B), (100, 3, C), (200, 4, D)]
    assert queue.peek(lambda key: True) == (50, 2, B)


def test_a_requeued_key_leaves_twins_that_read_as_one():
    queue = _Queue()
    queue.push(100, 1, A)
    queue.discard(A)
    queue.push(100, 1, A)            # same number: the dead copy is live too
    queue.push(100, 2, B)
    assert queued(queue) == [(100, 1, A), (100, 1, A), (100, 2, B)]
    assert len(queue) == 2
    queue.pop()                      # a pop retires both copies
    assert queue.peek(lambda key: True) == (100, 2, B)


def test_compact_drops_the_consumed_prefix_only():
    queue = _Queue()
    for seq, key in enumerate((A, B, C), start=1):
        queue.push(100, seq, key)
    queue.pop()
    queue.compact()
    assert (queue.offset, queue.entries) == (0, [(100, 2, B), (100, 3, C)])
    queue.compact()
    assert queue.entries == [(100, 2, B), (100, 3, C)]


def walk_heads(tree, machine, classify, verdict=PASS, destructive=False):
    """Every head a walk offers, answering each with ``verdict``."""
    walk = tree.walk(machine, classify, destructive)
    heads = []
    head = walk.send(None)
    while head is not None:
        heads.append(head)
        head = walk.send(verdict)
    walk.close()
    return heads


def test_walk_passes_over_turned_down_entries_in_place():
    tree = make_tree()
    for seq, key in enumerate((A, B, C), start=1):
        tree.index(key, 100, seq, {}, {}, 1)
    queue = tree._cluster_queue
    before = (list(queue.entries), dict(queue.members))
    heads = walk_heads(tree, "m1", lambda key, level, name: 1)
    assert heads == [(A, LocalityLevel.CLUSTER, 1),
                     (B, LocalityLevel.CLUSTER, 1),
                     (C, LocalityLevel.CLUSTER, 1)]
    assert (queue.entries, queue.members) == before


def test_walk_deletes_dead_and_stale_entries_in_the_middle():
    tree = make_tree()
    for seq, key in enumerate((A, B, C, D), start=1):
        tree.index(key, 100, seq, {}, {}, 1)
    tree.remove(B)                                  # dead
    wants = {A: -1, C: 0, D: 1}                     # C stale
    heads = walk_heads(tree, "m1", lambda key, level, name: wants[key])
    assert heads == [(D, LocalityLevel.CLUSTER, 1)]
    queue = tree._cluster_queue
    assert queue.entries == [(100, 1, A), (100, 4, D)]
    assert tree.queue_sizes() == {"": 2}
    assert set(queue.members) == {A, D}


def test_walk_moves_the_offset_past_dead_heads_and_compacts():
    tree = make_tree()
    for seq, key in enumerate((A, B, C), start=1):
        tree.index(key, 100, seq, {}, {}, 1)
    tree.remove(A)
    tree.remove(B)
    walk = tree.walk("m1", lambda key, level, name: 1)
    assert walk.send(None) == (C, LocalityLevel.CLUSTER, 1)
    queue = tree._cluster_queue
    assert (queue.offset, len(queue.entries)) == (2, 3)
    walk.close()
    assert (queue.offset, queue.entries) == (0, [(100, 3, C)])


def test_walk_collapses_twins_it_passes_over():
    tree = make_tree()
    tree.index(A, 100, 1, {}, {}, 1)
    tree.remove(A)
    tree.index(A, 100, 1, {}, {}, 1)
    tree.index(B, 100, 2, {}, {}, 1)
    assert len(tree._cluster_queue.entries) == 3
    heads = walk_heads(tree, "m1", lambda key, level, name: 1)
    assert [key for key, _, _ in heads] == [A, B]
    assert tree._cluster_queue.entries == [(100, 1, A), (100, 2, B)]


def test_walk_restarts_when_a_push_lands_before_a_cursor():
    """A re-index on a policy path can insert behind a cursor; the walk
    sees the list grow, restarts every cursor at its queue's offset and
    re-judges what it had passed."""
    tree = make_tree()
    tree.index(A, 100, 1, {}, {}, 1)
    tree.index(B, 100, 2, {}, {}, 1)
    turned_down = set()

    def classify(key, level, name):
        return -1 if key in turned_down else 1

    walk = tree.walk("m1", classify)
    assert walk.send(None)[0] == A
    turned_down.add(A)
    assert walk.send(PASS)[0] == B
    tree.index(C, 50, 3, {}, {}, 1)   # sorts before A and B
    assert walk.send(REREAD)[0] == C
    turned_down.add(C)
    assert walk.send(PASS)[0] == B
    walk.close()


def test_walk_orders_the_three_queues_like_the_candidate_iterator():
    tree = make_tree()
    tree.index(A, 100, 1, {}, {}, 5)
    tree.index(B, 100, 2, {"m1": 2}, {}, 2)
    tree.index(C, 100, 3, {}, {"r1": 2}, 2)
    heads = walk_heads(tree, "m1", lambda key, level, name: 1)
    assert [(key, level) for key, level, _ in heads] == [
        (B, LocalityLevel.MACHINE), (C, LocalityLevel.RACK),
        (A, LocalityLevel.CLUSTER), (B, LocalityLevel.CLUSTER),
        (C, LocalityLevel.CLUSTER)]


def test_destructive_walk_consumes_what_it_passes():
    tree = make_tree()
    for seq, key in enumerate((A, B, C), start=1):
        tree.index(key, 100, seq, {}, {}, 1)
    wants = {A: 1, B: -1, C: 1}
    heads = walk_heads(tree, "m1", lambda key, level, name: wants[key],
                       destructive=True)
    assert [key for key, _, _ in heads] == [A, C]
    queue = tree._cluster_queue
    assert (queue.entries, queue.members) == ([], {})
