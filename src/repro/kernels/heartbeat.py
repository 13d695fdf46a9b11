"""Per-machine timestamp columns for the heartbeat tier.

The FuxiMaster's §3.4 roll-ups — heartbeat-timeout detection and
health-based bad-node detection — keep one timestamp per machine and scan
them once per liveness tick.  A time column is an insertion-ordered dict
with those two threshold scans attached: updating an existing key keeps
its position, removing and re-adding moves it to the end.  Threshold
queries take the caller's original comparison expression — ``now - value
> x`` or ``now - value >= x`` — so the float arithmetic is the scalar
code's.

A numpy column with vectorised scans priced no better (DESIGN.md §11): a
scan is one pass over a dict, and every beat paid a numpy scalar store.
"""

from __future__ import annotations

from typing import Dict, Iterator, KeysView, List, Optional, Sequence


class PyTimeColumn:
    """Ordered-dict time column with loop-based threshold scans."""

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def set(self, name: str, value: float) -> None:
        self._values[name] = value

    def set_many(self, names: Sequence[str],
                 values: Sequence[float]) -> None:
        """``set(name, value)`` pairwise, in order: a name already in the
        column keeps its position, a new one is appended."""
        self._values.update(zip(names, values))

    def get(self, name: str, default: Optional[float] = None) -> Optional[float]:
        return self._values.get(name, default)

    def pop(self, name: str) -> None:
        self._values.pop(name, None)

    def clear(self) -> None:
        self._values.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def keys(self) -> KeysView[str]:
        """Live view of the names present, in insertion order (membership
        tests on it skip the method call of ``name in column``)."""
        return self._values.keys()

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> Iterator[float]:
        return iter(self._values.values())

    def stale(self, now: float, threshold: float) -> List[str]:
        """Names where ``now - value > threshold``, in insertion order."""
        return [name for name, value in self._values.items()
                if now - value > threshold]

    def elapsed_at_least(self, now: float, threshold: float) -> List[str]:
        """Names where ``now - value >= threshold``, in insertion order."""
        return [name for name, value in self._values.items()
                if now - value >= threshold]


class NumpyTimeColumn(PyTimeColumn):
    """Kept by name only; nothing constructs it.

    The layered benchmark's span tracer imports this class and wraps
    ``set``/``pop``/``stale``/``elapsed_at_least`` through
    ``cls.__dict__``, so the four names are bound here as well.
    """

    set = PyTimeColumn.set
    pop = PyTimeColumn.pop
    stale = PyTimeColumn.stale
    elapsed_at_least = PyTimeColumn.elapsed_at_least


def make_time_column() -> PyTimeColumn:
    """A fresh, empty time column."""
    return PyTimeColumn()
