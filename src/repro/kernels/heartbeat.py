"""Columnar staleness bookkeeping for the heartbeat tier.

The FuxiMaster's §3.4 roll-ups — heartbeat-timeout detection and
health-based bad-node detection — each scanned a per-machine dict every
liveness tick: O(machines) Python-loop work per simulated second, 100k
iterations per tick at the 100k-machine frontier.  A :class:`TimeColumn`
keeps the per-machine timestamps in a dense float64 column so the
threshold scans collapse to one vectorized comparison per tick, while
per-beat updates stay O(1) scalar stores.

Semantics mirror an ordered dict exactly (and the python backend *is*
one): insertion order is preserved, updating an existing key keeps its
position, removing and re-adding moves it to the end.  Threshold queries
take the caller's original comparison expression — ``now - value > x`` or
``now - value >= x`` — so the float arithmetic is operation-identical to
the scalar code on both backends and results stay byte-identical.
"""

from __future__ import annotations

from typing import Dict, Iterator, KeysView, List, Optional, Sequence

from repro import kernels


class PyTimeColumn:
    """Ordered-dict fallback with loop-based threshold scans."""

    backend = "python"

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def set(self, name: str, value: float) -> None:
        self._values[name] = value

    def set_present(self, names: Sequence[str],
                    values: Sequence[float]) -> None:
        """``set(name, value)`` pairwise, for names already in the column
        (none is inserted, so no position moves)."""
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


class NumpyTimeColumn:
    """Dense column with vectorized threshold scans.

    Rows are assigned in insertion order; removed rows leave holes that a
    validity mask skips, compacted once holes dominate.  Because slots are
    monotone in insertion time (and compaction preserves order), ascending
    slot order *is* insertion order — ``np.nonzero`` output needs no sort.
    """

    backend = "numpy"

    def __init__(self) -> None:
        self._np = kernels.np()
        np = self._np
        self._slots: Dict[str, int] = {}
        self._names: List[Optional[str]] = []
        self._vals = np.zeros(64, dtype=np.float64)
        self._valid = np.zeros(64, dtype=bool)
        self._top = 0
        self._holes = 0

    def _compact(self) -> None:
        np = self._np
        live = [(name, self._vals[slot])
                for name, slot in sorted(self._slots.items(),
                                         key=lambda kv: kv[1])]
        size = max(64, len(self._vals))
        self._vals = np.zeros(size, dtype=np.float64)
        self._valid = np.zeros(size, dtype=bool)
        self._slots = {}
        self._names = []
        self._top = 0
        self._holes = 0
        for name, value in live:
            self.set(name, float(value))

    def set(self, name: str, value: float) -> None:
        slot = self._slots.get(name)
        if slot is None:
            np = self._np
            slot = self._top
            self._top += 1
            if slot >= len(self._vals):
                vals = np.zeros(len(self._vals) * 2, dtype=np.float64)
                vals[:slot] = self._vals
                valid = np.zeros(len(vals), dtype=bool)
                valid[:slot] = self._valid
                self._vals, self._valid = vals, valid
            self._slots[name] = slot
            self._names.append(name)
            self._valid[slot] = True
        self._vals[slot] = value

    def set_present(self, names: Sequence[str],
                    values: Sequence[float]) -> None:
        """``set(name, value)`` pairwise, for names already in the column:
        one scattered store instead of a scalar store per name."""
        self._vals[list(map(self._slots.__getitem__, names))] = values

    def get(self, name: str, default: Optional[float] = None) -> Optional[float]:
        slot = self._slots.get(name)
        return float(self._vals[slot]) if slot is not None else default

    def pop(self, name: str) -> None:
        slot = self._slots.pop(name, None)
        if slot is not None:
            self._valid[slot] = False
            self._names[slot] = None
            self._holes += 1
            if self._holes > 64 and self._holes * 2 > self._top:
                self._compact()

    def clear(self) -> None:
        self._slots.clear()
        self._names = []
        self._valid[:] = False
        self._top = 0
        self._holes = 0

    def __contains__(self, name: str) -> bool:
        return name in self._slots

    def keys(self) -> KeysView[str]:
        """Live view of the names present, in insertion order (membership
        tests on it skip the method call of ``name in column``)."""
        return self._slots.keys()

    def __len__(self) -> int:
        return len(self._slots)

    def values(self) -> Iterator[float]:
        for name in self._names:
            if name is not None:
                yield float(self._vals[self._slots[name]])

    def _where(self, mask) -> List[str]:
        names = self._names
        return [names[slot] for slot in self._np.nonzero(mask)[0].tolist()]

    def stale(self, now: float, threshold: float) -> List[str]:
        np = self._np
        window = slice(0, self._top)
        mask = (now - self._vals[window]) > threshold
        np.logical_and(mask, self._valid[window], out=mask)
        return self._where(mask)

    def elapsed_at_least(self, now: float, threshold: float) -> List[str]:
        np = self._np
        window = slice(0, self._top)
        mask = (now - self._vals[window]) >= threshold
        np.logical_and(mask, self._valid[window], out=mask)
        return self._where(mask)


def make_time_column():
    """A time column for the active kernel backend."""
    return NumpyTimeColumn() if kernels.np() is not None else PyTimeColumn()
