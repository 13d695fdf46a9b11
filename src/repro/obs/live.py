"""Live telemetry plane: the cluster snapshot sampler and its store.

PR 1's tracer is a post-mortem instrument — spans are only inspectable
after a run ends.  This module is the *streaming* counterpart: a compact
per-interval time-series of cluster state, captured while the simulation
runs, that ``fuxi-sim top`` renders live, ``fuxi-sim report`` charts, and
``repro.parallel`` sweeps merge across workers.

Three pieces:

- :class:`TimeSeriesStore` — a ring-buffered table of snapshot rows.  Rows
  are split into *deterministic* columns (counts, simulated times, resource
  totals — pure functions of the seed) and *wall* columns (``wall_``-prefixed
  wall-clock rates).  The default JSONL/dict export carries only the
  deterministic columns, so two same-seed runs export byte-identical
  feeds; wall columns stay available in-memory for ``top`` and profiling.
- :class:`ClusterSampler` — captures one row per sampling interval on a
  periodic timer: per-pool free/allocated vectors, pending
  ScheduleUnit queue depth by locality tier, heartbeat staleness,
  blacklist size, job progress, event-loop rates.
- :class:`SubsystemProfiler` — rides the sampled event-loop hooks and
  attributes wall time and event counts to the subsystem that owns each
  callback (master/agent/jobmaster/worker/network), the breakdown
  ``bench_scale_5000.py --profile`` surfaces in ``BENCH_scale.json``.
"""

from __future__ import annotations

import json
import time as _time
from collections import deque
from typing import IO, Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.events import EventLoop

PathOrFile = Union[str, "IO[str]"]

SCHEMA = 1

#: default ring capacity: at the default 5 s cadence this holds ~5.5 sim
#: hours of feed, while bounding memory for indefinitely running clusters
DEFAULT_CAPACITY = 4096

#: columns carrying wall-clock readings; excluded from deterministic export
WALL_PREFIX = "wall_"


class TimeSeriesStore:
    """Ring-buffered snapshot rows with deterministic JSONL export.

    Appends beyond ``capacity`` drop the oldest row (the ``dropped``
    counter travels with every export, so truncation is never silent).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 meta: Optional[dict] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.meta: dict = dict(meta or {})
        self._rows: deque = deque(maxlen=capacity)
        self.dropped = 0

    # ----------------------------- recording -------------------------- #

    def append(self, row: Dict[str, float]) -> None:
        if len(self._rows) == self.capacity:
            self.dropped += 1
        self._rows.append(dict(row))

    def rows(self, include_wall: bool = True) -> List[dict]:
        """The buffered rows, oldest first (copies; safe to mutate)."""
        if include_wall:
            return [dict(row) for row in self._rows]
        return [{k: v for k, v in row.items()
                 if not k.startswith(WALL_PREFIX)} for row in self._rows]

    def latest(self) -> Optional[dict]:
        return dict(self._rows[-1]) if self._rows else None

    def series(self, column: str,
               time_column: str = "time") -> List[Tuple[float, float]]:
        """``(time, value)`` pairs of one column (rows missing it skipped)."""
        return [(row[time_column], row[column]) for row in self._rows
                if column in row and time_column in row]

    def columns(self) -> List[str]:
        """Sorted union of every column name seen across the rows."""
        names: set = set()
        for row in self._rows:
            names.update(row)
        return sorted(names)

    def __len__(self) -> int:
        return len(self._rows)

    # ----------------------------- export ----------------------------- #

    def to_dict(self, include_wall: bool = False) -> dict:
        """Plain JSON-able form; deterministic by default (no wall columns).

        This is the payload a sweep worker ships back to the merge —
        anything here must be a pure function of (spec, seed).
        """
        return {
            "kind": "timeseries",
            "schema": SCHEMA,
            "meta": dict(self.meta),
            "capacity": self.capacity,
            "dropped": self.dropped,
            "rows": self.rows(include_wall=include_wall),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeriesStore":
        store = cls(capacity=int(data.get("capacity", DEFAULT_CAPACITY)),
                    meta=data.get("meta"))
        for row in data.get("rows", ()):
            store._rows.append(dict(row))
        store.dropped = int(data.get("dropped", 0))
        return store

    def to_jsonl(self, include_wall: bool = False) -> str:
        """Header line + one row per line (sorted keys, compact separators).

        Byte-identical for a fixed seed when ``include_wall`` is False —
        the integration tests pin exactly that.
        """
        doc = self.to_dict(include_wall=include_wall)
        rows = doc.pop("rows")
        doc["rows"] = len(rows)
        lines = [json.dumps(doc, sort_keys=True, separators=(",", ":"))]
        lines.extend(json.dumps(row, sort_keys=True, separators=(",", ":"))
                     for row in rows)
        return "\n".join(lines) + "\n"

    def dump_jsonl(self, target: PathOrFile,
                   include_wall: bool = False) -> int:
        """Write the store to a path or file object; returns the row count."""
        text = self.to_jsonl(include_wall=include_wall)
        if hasattr(target, "write"):
            target.write(text)  # type: ignore[union-attr]
        else:
            with open(target, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
                handle.write(text)
        return len(self._rows)

    @classmethod
    def from_jsonl(cls, source: PathOrFile) -> "TimeSeriesStore":
        if hasattr(source, "read"):
            text = source.read()  # type: ignore[union-attr]
        else:
            with open(source, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
                text = handle.read()
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            return cls()
        header = json.loads(lines[0])
        if header.get("kind") != "timeseries":
            raise ValueError("not a timeseries JSONL (missing header line)")
        header["rows"] = [json.loads(line) for line in lines[1:]]
        return cls.from_dict(header)

    # ----------------------------- merging ---------------------------- #

    @staticmethod
    def merge(stores: Sequence["TimeSeriesStore"]) -> "TimeSeriesStore":
        """Combine per-worker stores into one canonically ordered feed.

        Each row is tagged with its store's ``meta['seed']`` (when present
        and not already a column) and the union is sorted by
        ``(seed, time)`` — so a sweep's merged feed is identical whether
        the workers finished in any order, serial or pooled.
        """
        tagged: List[dict] = []
        dropped = 0
        for store in stores:
            seed = store.meta.get("seed")
            dropped += store.dropped
            for row in store._rows:
                row = dict(row)
                if seed is not None and "seed" not in row:
                    row["seed"] = seed
                tagged.append(row)
        tagged.sort(key=lambda r: (r.get("seed", 0), r.get("time", 0.0)))
        merged = TimeSeriesStore(
            capacity=max(len(tagged), 1),
            meta={"merged_from": len(stores)})
        for row in tagged:
            merged._rows.append(row)
        merged.dropped = dropped
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TimeSeriesStore rows={len(self._rows)} "
                f"dropped={self.dropped} meta={self.meta}>")


class ClusterSampler:
    """Periodic cluster state snapshots on a self-re-arming loop event.

    One :meth:`sample_now` per ``interval`` simulated seconds captures the
    deterministic cluster state (see :meth:`repro._runtime.FuxiCluster.
    telemetry_snapshot`) plus per-interval rates:

    - ``events_per_sim_s`` — executed events per simulated second since
      the previous sample (deterministic);
    - ``wall_ms_per_sim_s`` / ``wall_events_per_s`` — wall-clock cost of
      the interval (``wall_``-prefixed: excluded from deterministic
      export, rendered by ``fuxi-sim top``).

    Its ticks are ordinary loop events, so they pass through the sampled
    hooks like every other event.
    """

    def __init__(self, cluster, interval: float = 5.0,
                 capacity: int = DEFAULT_CAPACITY,
                 store: Optional[TimeSeriesStore] = None):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.cluster = cluster
        self.interval = float(interval)
        self.store = store if store is not None else TimeSeriesStore(capacity)
        self.store.meta.setdefault("interval", self.interval)
        self._timer = None
        self._last_sim: Optional[float] = None
        self._last_events = 0
        self._last_wall = 0.0

    @property
    def attached(self) -> bool:
        return self._timer is not None

    def attach(self) -> "ClusterSampler":
        """Start the periodic; the first sample lands one interval out."""
        if self._timer is None:
            loop = self.cluster.loop
            self._last_sim = loop.now
            self._last_events = self.cluster.events_total
            self._last_wall = _time.perf_counter()
            self._timer = loop.call_after(self.interval, self._tick)
        return self

    def detach(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        self.sample_now()
        self._timer = self.cluster.loop.call_after(self.interval, self._tick)

    def sample_now(self) -> dict:
        """Capture one row immediately (also what the periodic calls)."""
        loop: EventLoop = self.cluster.loop
        row = self.cluster.telemetry_snapshot()
        now = loop.now
        events = self.cluster.events_total
        wall = _time.perf_counter()
        if self._last_sim is not None:
            dt_sim = now - self._last_sim
            dt_events = events - self._last_events
            dt_wall = wall - self._last_wall
            if dt_sim > 0:
                row["events_per_sim_s"] = round(dt_events / dt_sim, 3)
                row["wall_ms_per_sim_s"] = round(1000.0 * dt_wall / dt_sim, 3)
            if dt_wall > 0:
                row["wall_events_per_s"] = round(dt_events / dt_wall, 1)
        self._last_sim = now
        self._last_events = events
        self._last_wall = wall
        self.store.append(row)
        return row


# --------------------------------------------------------------------- #
# profiling attribution
# --------------------------------------------------------------------- #

#: callback module → subsystem.  The scheduler runs synchronously inside
#: master callbacks, so ``master`` covers §3 scheduling work as well.
_SUBSYSTEM_BY_MODULE: Dict[str, str] = {
    "repro.core.master": "master",
    "repro.core.agent": "agent",
    "repro.core.heartbeat": "agent",
    "repro.core.appmaster": "jobmaster",
    "repro.jobs.jobmaster": "jobmaster",
    "repro.jobs.taskmaster": "jobmaster",
    "repro.jobs.service": "jobmaster",
    "repro.jobs.backup": "jobmaster",
    "repro.jobs.worker": "worker",
    "repro.cluster.network": "network",
    "repro.cluster.lockservice": "locks",
    "repro.cluster.faults": "faults",
    "repro.obs.live": "sampler",
}


def unwrap_callback(callback, _depth: int = 4):
    """Peel periodic-timer wrappers (``_PeriodicChain``) off a callback.

    Wrappers expose the wrapped callable as a ``callback`` attribute; the
    inner bound method is what names the owning subsystem.
    """
    while _depth > 0:
        inner = getattr(callback, "callback", None)
        if not callable(inner):
            return callback
        callback = inner
        _depth -= 1
    return callback


def classify_callback(callback) -> str:
    """The subsystem owning a scheduled callback, by defining module."""
    callback = unwrap_callback(callback)
    module = getattr(callback, "__module__", None) or ""
    subsystem = _SUBSYSTEM_BY_MODULE.get(module)
    if subsystem is not None:
        return subsystem
    if module.startswith("repro.jobs"):
        return "jobmaster"
    return "other"


class SubsystemProfiler:
    """Per-subsystem wall-time and event-count attribution.

    Rides the existing sampled loop hooks: every ``sample_every``-th
    executed event is timed by the loop and booked against the subsystem
    of its callback.  Sampled event *counts* are deterministic for a
    fixed seed (sampling follows the execution count); the wall shares
    are the measurement.
    """

    def __init__(self) -> None:
        self.events: Dict[str, int] = {}
        self.wall: Dict[str, float] = {}
        self.sample_every = 0
        self._handle = None

    def attach(self, loop: EventLoop,
               sample_every: int = 16) -> "SubsystemProfiler":
        if self._handle is None:
            self.sample_every = int(sample_every)
            self._handle = loop.add_hook(self._hook,
                                        sample_every=sample_every)
        return self

    def detach(self, loop: EventLoop) -> None:
        if self._handle is not None:
            loop.remove_hook(self._handle)
            self._handle = None

    def _hook(self, loop: EventLoop, event, wall_seconds: float) -> None:
        subsystem = classify_callback(event.callback)
        self.events[subsystem] = self.events.get(subsystem, 0) + 1
        self.wall[subsystem] = self.wall.get(subsystem, 0.0) + wall_seconds

    def report(self) -> dict:
        """Attribution summary (the ``profile`` block of BENCH_scale.json)."""
        total_wall = sum(self.wall.values())
        subsystems = {}
        for name in sorted(self.events):
            wall = self.wall.get(name, 0.0)
            subsystems[name] = {
                "events_sampled": self.events[name],
                "wall_ms": round(wall * 1000.0, 3),
                "wall_share": round(wall / total_wall, 4) if total_wall else 0.0,
            }
        return {
            "sample_every": self.sample_every,
            "events_sampled": sum(self.events.values()),
            "subsystems": subsystems,
        }
