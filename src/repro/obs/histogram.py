"""Histograms and the metrics registry.

Two histogram shapes cover the simulator's needs:

- :class:`FixedBucketHistogram` — explicit upper bounds, for quantities
  whose range is known up front (queue depths, grant batch sizes);
- :class:`LogBucketHistogram` — HDR-style logarithmic buckets with a
  bounded relative error, for latencies spanning several orders of
  magnitude (callback wall times, scheduling latencies).

Both report p50/p95/p99/max from bucket counts in O(#buckets), keep exact
``count``/``sum``/``min``/``max``, and serialise deterministically.

:class:`MetricsRegistry` is the one metrics store: named counters,
append-only :class:`~repro.cluster.metrics.Series` (the experiments read
them) and histograms.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.metrics import Series


class Histogram:
    """Shared bucket-count machinery; subclasses define the bucket shape."""

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- subclass interface ------------------------------------------- #

    def _bucket_index(self, value: float) -> int:
        raise NotImplementedError

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        """(inclusive lower, exclusive upper) value range of a bucket."""
        raise NotImplementedError

    def _counts(self) -> Dict[int, int]:
        raise NotImplementedError

    # -- recording ----------------------------------------------------- #

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        counts = self._counts()
        index = self._bucket_index(value)
        counts[index] = counts.get(index, 0) + 1

    # -- statistics ---------------------------------------------------- #

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` (0..100), interpolated inside its bucket
        and clamped to the exactly-tracked min/max."""
        if not self.count:
            return 0.0
        target = (q / 100.0) * self.count
        cumulative = 0
        for index in sorted(self._counts()):
            bucket_count = self._counts()[index]
            if cumulative + bucket_count >= target:
                low, high = self._bucket_bounds(index)
                frac = ((target - cumulative) / bucket_count
                        if bucket_count else 0.0)
                value = low + (high - low) * frac
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le_upper_bound, cumulative_count)`` pairs."""
        out: List[Tuple[float, int]] = []
        cumulative = 0
        for index in sorted(self._counts()):
            cumulative += self._counts()[index]
            out.append((self._bucket_bounds(index)[1], cumulative))
        return out

    def snapshot(self) -> dict:
        """Deterministic summary for dumps and assertions."""
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.name} n={self.count} "
                f"p50={self.p50:.4g} p99={self.p99:.4g} max={self.max:.4g}>")


class FixedBucketHistogram(Histogram):
    """Explicit upper-bound buckets plus an overflow bucket."""

    def __init__(self, name: str, bounds: Sequence[float]):
        super().__init__(name)
        if not bounds:
            raise ValueError("need at least one bucket bound")
        self.bounds = sorted(float(b) for b in bounds)
        self._bucket_counts: Dict[int, int] = {}

    def _counts(self) -> Dict[int, int]:
        return self._bucket_counts

    def _bucket_index(self, value: float) -> int:
        # bucket i covers values <= bounds[i]; len(bounds) is overflow
        return bisect.bisect_left(self.bounds, value)

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        if index >= len(self.bounds):
            return (self.bounds[-1], self.max if self.count else math.inf)
        low = self.bounds[index - 1] if index > 0 else min(self.min, 0.0)
        return (low, self.bounds[index])


class LogBucketHistogram(Histogram):
    """HDR-style log buckets: bucket i covers ``(growth**i, growth**(i+1)]``.

    ``subbuckets_per_octave`` fixes the relative error: 8 per octave means
    bucket width ~9 %, so any percentile is within ~9 % of the true value.
    Zero and negative values land in a dedicated zero bucket.
    """

    _ZERO_BUCKET = -(10 ** 9)   # sorts before every real bucket index

    def __init__(self, name: str, subbuckets_per_octave: int = 8):
        super().__init__(name)
        if subbuckets_per_octave < 1:
            raise ValueError("subbuckets_per_octave must be >= 1")
        self.growth = 2.0 ** (1.0 / subbuckets_per_octave)
        self._log_growth = math.log(self.growth)
        self._bucket_counts: Dict[int, int] = {}

    def _counts(self) -> Dict[int, int]:
        return self._bucket_counts

    def _bucket_index(self, value: float) -> int:
        if value <= 0.0:
            return self._ZERO_BUCKET
        return math.ceil(math.log(value) / self._log_growth - 1e-12) - 1

    def _bucket_bounds(self, index: int) -> Tuple[float, float]:
        if index == self._ZERO_BUCKET:
            return (min(self.min, 0.0) if self.count else 0.0, 0.0)
        return (self.growth ** index, self.growth ** (index + 1))


class MetricsRegistry:
    """Named counters, series and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._series: Dict[str, Series] = {}
        self._histograms: Dict[str, Histogram] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def record(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)

    def series(self, name: str) -> Series:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = Series(name)
        return series

    def series_names(self) -> List[str]:
        return sorted(self._series)

    def has_series(self, name: str) -> bool:
        return name in self._series

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None,
                  subbuckets_per_octave: int = 8) -> Histogram:
        """Get or create a histogram.

        With ``bounds`` the histogram is fixed-bucket; otherwise it is a
        log-bucket histogram.  The shape is fixed at first creation.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            if bounds is not None:
                histogram = FixedBucketHistogram(name, bounds)
            else:
                histogram = LogBucketHistogram(name, subbuckets_per_octave)
            self._histograms[name] = histogram
        return histogram

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a (log-bucket by default) histogram."""
        self.histogram(name).record(value)

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def histogram_names(self) -> List[str]:
        return sorted(self._histograms)

    def has_histogram(self, name: str) -> bool:
        return name in self._histograms
