"""Hard-state checkpointing (paper §4.3.1).

FuxiMaster separates *hard* state — application/job descriptions, quota
configuration, the cluster-level machine blacklist — from *soft* state that
can be re-collected from FuxiAgents and application masters at failover.
Only hard state is checkpointed, and only on job submit/stop, keeping the
bookkeeping overhead negligible.

The store is a versioned key-value journal.  In the simulator both
FuxiMaster incarnations share one store object (standing in for reliable
shared storage); it can also round-trip through JSON for durability tests.
"""

from __future__ import annotations

import copy
import json
from typing import Any, Dict, Iterator, Tuple

#: immutable leaves of a JSON-shaped value (exact types: no subclasses)
_ATOMS = frozenset((str, int, float, bool, type(None)))


def tree_copy(value: Any) -> Any:
    """``copy.deepcopy`` for JSON-shaped values, about 3x faster on a job
    description (no memo dict, no per-node dispatch through ``copy``).

    Dicts, lists and tuples of atoms (str, int, float, bool, None) are
    rebuilt node by node; anything else — a subclass, a set, an object,
    a non-atomic dict key — is handed to ``copy.deepcopy``.  Equal to
    deepcopy's result, of the same types, and sharing no mutable node with
    the input; unlike deepcopy it does not preserve aliasing between
    branches, which a JSON value cannot express anyway.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        copied = {}
        for key, item in value.items():
            if type(key) not in _ATOMS:
                return copy.deepcopy(value)
            copied[key] = tree_copy(item)
        return copied
    if kind is list:
        return [tree_copy(item) for item in value]
    if kind is tuple:
        return tuple([tree_copy(item) for item in value])
    return copy.deepcopy(value)


class CheckpointStore:
    """Versioned hard-state store with JSON round-tripping."""

    def __init__(self) -> None:
        self._entries: Dict[str, Any] = {}
        self.version = 0
        self.writes = 0

    def put(self, key: str, value: Any) -> None:
        """Record hard state under ``key``.  Values must be JSON-serializable."""
        self._entries[key] = tree_copy(value)
        self.version += 1
        self.writes += 1

    def get(self, key: str, default: Any = None) -> Any:
        return tree_copy(self._entries.get(key, default))

    def peek(self, key: str, default: Any = None) -> Any:
        """Read ``key`` without the defensive deepcopy.

        The returned value is the store's own object — callers must treat
        it as read-only.  Use on hot paths that only inspect a field (e.g.
        looking up an app's quota group per request delta); use :meth:`get`
        whenever the value escapes into mutable state.
        """
        return self._entries.get(key, default)

    def delete(self, key: str) -> None:
        if key in self._entries:
            del self._entries[key]
            self.version += 1
            self.writes += 1

    def keys(self, prefix: str = "") -> Iterator[str]:
        return iter(sorted(k for k in self._entries if k.startswith(prefix)))

    def items(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        for key in self.keys(prefix):
            yield key, tree_copy(self._entries[key])

    def peek_items(self, prefix: str = "") -> Iterator[Tuple[str, Any]]:
        """:meth:`items` without the defensive deepcopy, in the same key
        order.  The values are the store's own objects — read-only, as
        for :meth:`peek`."""
        for key in self.keys(prefix):
            yield key, self.peek(key)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # --------------------------------------------------------------- #
    # durability round-trip
    # --------------------------------------------------------------- #

    def dump_json(self) -> str:
        return json.dumps({"version": self.version, "entries": self._entries},
                          sort_keys=True)

    @classmethod
    def load_json(cls, text: str) -> "CheckpointStore":
        data = json.loads(text)
        store = cls()
        store._entries = data["entries"]
        store.version = data["version"]
        return store

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dump_json())

    @classmethod
    def load(cls, path: str) -> "CheckpointStore":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.load_json(handle.read())
