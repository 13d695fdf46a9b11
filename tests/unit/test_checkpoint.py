"""Unit tests for the hard-state checkpoint store (paper §4.3.1)."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.checkpoint import CheckpointStore, tree_copy


def test_put_get_roundtrip():
    store = CheckpointStore()
    store.put("app/1", {"name": "job"})
    assert store.get("app/1") == {"name": "job"}


def test_get_returns_deep_copy():
    store = CheckpointStore()
    store.put("k", {"nested": [1, 2]})
    fetched = store.get("k")
    fetched["nested"].append(3)
    assert store.get("k") == {"nested": [1, 2]}


def test_put_stores_deep_copy():
    store = CheckpointStore()
    value = {"nested": [1]}
    store.put("k", value)
    value["nested"].append(2)
    assert store.get("k") == {"nested": [1]}


def test_missing_key_default():
    store = CheckpointStore()
    assert store.get("nope") is None
    assert store.get("nope", 42) == 42


def test_delete():
    store = CheckpointStore()
    store.put("k", 1)
    store.delete("k")
    assert "k" not in store
    store.delete("k")   # idempotent


def test_version_and_write_count_track_mutations():
    store = CheckpointStore()
    assert store.version == 0
    store.put("a", 1)
    store.put("b", 2)
    store.delete("a")
    assert store.version == 3
    assert store.writes == 3


def test_prefix_iteration():
    store = CheckpointStore()
    store.put("app/1", {"x": 1})
    store.put("app/2", {"x": 2})
    store.put("quota/g", {"y": 3})
    assert list(store.keys("app/")) == ["app/1", "app/2"]
    assert dict(store.items("quota/")) == {"quota/g": {"y": 3}}


def test_peek_items_reads_without_copying():
    store = CheckpointStore()
    store.put("app/2", {"x": 2})
    store.put("app/1", {"x": 1})
    store.put("quota/g", {"y": 3})
    assert list(store.peek_items("app/")) == list(store.items("app/"))
    (_, record), _ = store.peek_items("app/")
    assert record is store.peek("app/1")


def test_json_roundtrip():
    store = CheckpointStore()
    store.put("app/1", {"group": "g", "n": 3})
    store.put("blacklist", {"disabled": {"m1": "health"}})
    restored = CheckpointStore.load_json(store.dump_json())
    assert restored.get("app/1") == {"group": "g", "n": 3}
    assert restored.get("blacklist") == {"disabled": {"m1": "health"}}
    assert restored.version == store.version


def test_file_roundtrip(tmp_path):
    store = CheckpointStore()
    store.put("k", [1, 2, 3])
    path = str(tmp_path / "checkpoint.json")
    store.save(path)
    restored = CheckpointStore.load(path)
    assert restored.get("k") == [1, 2, 3]


def test_len():
    store = CheckpointStore()
    store.put("a", 1)
    store.put("b", 2)
    assert len(store) == 2


# --------------------------------------------------------------------- #
# tree_copy: deepcopy for JSON-shaped values
# --------------------------------------------------------------------- #

class Opaque:
    """Not JSON-shaped: tree_copy hands it to deepcopy."""

    def __init__(self, payload):
        self.payload = payload

    def __eq__(self, other):
        return type(other) is Opaque and other.payload == self.payload


atoms = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=6))
keys = st.one_of(st.text(max_size=4), st.integers(), st.booleans(),
                 st.none(), st.floats(allow_nan=False),
                 st.tuples(st.integers()), st.frozensets(st.integers()))
values = st.recursive(
    st.one_of(atoms, st.builds(Opaque, st.lists(st.integers(), max_size=2)),
              st.sets(st.integers(), max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


def mutable_nodes(value, found=None):
    """id -> node of every node a copy must not share."""
    found = {} if found is None else found
    if isinstance(value, (dict, list, set, Opaque)):
        found[id(value)] = value
    children = (value.values() if isinstance(value, dict)
                else [value.payload] if isinstance(value, Opaque)
                else value if isinstance(value, (list, tuple)) else ())
    for child in children:
        mutable_nodes(child, found)
    return found


def same_types(left, right):
    if type(left) is not type(right):
        return False
    if isinstance(left, dict):
        return (list(map(type, left)) == list(map(type, right))
                and all(same_types(a, b)
                        for a, b in zip(left.values(), right.values())))
    if isinstance(left, (list, tuple)):
        return all(same_types(a, b) for a, b in zip(left, right))
    return True


@settings(max_examples=500, deadline=None)
@given(values)
def test_tree_copy_is_deepcopy_for_json_shaped_values(value):
    copied = tree_copy(value)
    assert copied == copy.deepcopy(value)
    assert same_types(copied, value)
    assert not mutable_nodes(copied).keys() & mutable_nodes(value).keys()


def test_tree_copy_rebuilds_a_job_description():
    description = {"type": "dag", "tasks": [{"name": "map", "cpu": 0.5,
                                              "hints": ("r01m002",)}],
                   "submitted_at": 3.0, "backup": None}
    copied = tree_copy(description)
    assert copied == description
    assert copied["tasks"][0] is not description["tasks"][0]
