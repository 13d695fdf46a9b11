"""Unit tests for the hard-state checkpoint store (paper §4.3.1)."""

import pytest

from repro.core.checkpoint import CheckpointStore


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
