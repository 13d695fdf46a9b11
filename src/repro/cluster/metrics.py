"""Time series, percentiles and plain-text tables.

The evaluation figures are all time series (Fig 9 per-request scheduling
time, Fig 10 utilization curves) or aggregates over event timestamps
(Table 2 overheads).  The one metrics store,
:class:`repro.obs.histogram.MetricsRegistry`, keeps its series as
:class:`Series`; :class:`Series` and :func:`format_table` are the stable
API the experiments are written against — analysis lives in
:mod:`repro.experiments`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of a sorted sequence, q in [0, 100]."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


@dataclass
class Series:
    """An append-only (time, value) series with summary helpers."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def mean(self) -> float:
        values = self.values()
        return sum(values) / len(values) if values else 0.0

    def max(self) -> float:
        values = self.values()
        return max(values) if values else 0.0

    def min(self) -> float:
        values = self.values()
        return min(values) if values else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, q in [0, 100]."""
        return percentile(sorted(self.values()), q)

    def resample(self, step: float) -> List[Tuple[float, float]]:
        """Mean value per ``step``-wide time bucket (for plotting/printing).

        Bucket starts are ``floor(time / step) * step``: explicit
        ``math.floor`` so negative and non-multiple start times label the
        bucket by its true lower edge instead of truncating toward zero.
        """
        if not self.points:
            return []
        buckets: Dict[int, List[float]] = {}
        for time, value in self.points:
            buckets.setdefault(math.floor(time / step), []).append(value)
        return [
            (index * step, sum(vals) / len(vals))
            for index, vals in sorted(buckets.items())
        ]

    def __len__(self) -> int:
        return len(self.points)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Plain-text table used by the experiment harness reports."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
