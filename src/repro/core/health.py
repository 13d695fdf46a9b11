"""Pluggable node-health scoring (paper §4.3.2).

FuxiMaster collects hardware information from each machine's operating
system — "disk statistics, machine load and network I/O are all collected to
calculate a score.  Once the score is too low for a long time, FuxiMaster
will also mark the machine as unavailable.  With this plugin schema,
administrators can add more check items to the list."

A :class:`HealthPlugin` turns one raw sample dict into a score in [0, 1];
the :class:`HealthMonitor` combines plugin scores by weight and tracks how
long each machine has stayed below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.kernels.heartbeat import make_time_column


class HealthPlugin:
    """One check item.  Subclass and override :meth:`evaluate`."""

    name = "plugin"
    weight = 1.0

    def evaluate(self, sample: Mapping[str, float]) -> float:
        """Score a raw sample in [0, 1]; 1 is perfectly healthy."""
        raise NotImplementedError


class DiskHealthPlugin(HealthPlugin):
    """Penalizes disk errors and slow I/O.

    Sample keys: ``disk_errors`` (count since last sample), ``disk_util``
    (0..1 busy fraction).
    """

    name = "disk"
    weight = 2.0

    def __init__(self, max_errors: int = 5):
        self.max_errors = max_errors

    def evaluate(self, sample: Mapping[str, float]) -> float:
        errors = float(sample.get("disk_errors", 0.0))
        util = min(max(float(sample.get("disk_util", 0.0)), 0.0), 1.0)
        error_score = max(0.0, 1.0 - errors / self.max_errors)
        util_score = 1.0 - 0.5 * util  # saturated disks halve the score
        return error_score * util_score


class LoadHealthPlugin(HealthPlugin):
    """Penalizes load average above the core count.

    Sample keys: ``load1`` (1-minute load average), ``cores``.
    """

    name = "load"
    weight = 1.0

    def evaluate(self, sample: Mapping[str, float]) -> float:
        cores = max(float(sample.get("cores", 1.0)), 1.0)
        load = max(float(sample.get("load1", 0.0)), 0.0)
        overload = max(0.0, load / cores - 1.0)
        return 1.0 / (1.0 + overload)


class NetworkHealthPlugin(HealthPlugin):
    """Penalizes packet errors/drops.

    Sample keys: ``net_errors`` (count since last sample).
    """

    name = "network"
    weight = 1.0

    def __init__(self, max_errors: int = 100):
        self.max_errors = max_errors

    def evaluate(self, sample: Mapping[str, float]) -> float:
        errors = float(sample.get("net_errors", 0.0))
        return max(0.0, 1.0 - errors / self.max_errors)


def default_plugins() -> List[HealthPlugin]:
    """The disk/load/network check items the paper describes."""
    return [DiskHealthPlugin(), LoadHealthPlugin(), NetworkHealthPlugin()]


@dataclass(slots=True)
class _MachineHealth:
    score: float = 1.0
    # Copy of the last raw sample and a memo of its score.  A copy because
    # record_sample takes any mapping and its caller may change it later;
    # the samples agents send (MachineState.health_sample) are replaced,
    # never mutated, which is what lets HealthMonitor.folded certify "same
    # sample" by identity without this comparison.  Machines whose samples
    # are equal share one copy (HealthMonitor._last_scored); it is only
    # ever compared, never written.
    last_sample: Optional[Dict[str, float]] = None


class HealthMonitor:
    """Combines plugin scores and flags persistently unhealthy machines."""

    def __init__(self, plugins: Optional[List[HealthPlugin]] = None,
                 threshold: float = 0.5, grace_seconds: float = 60.0):
        self.plugins = plugins if plugins is not None else default_plugins()
        if not self.plugins:
            raise ValueError("need at least one health plugin")
        self.threshold = threshold
        self.grace_seconds = grace_seconds
        self._machines: Dict[str, _MachineHealth] = {}
        # When each below-threshold machine first dipped (only those
        # machines): the grace-period roll-up scans this column alone.
        self._below_since = make_time_column()
        self._total_weight = sum(p.weight for p in self.plugins)
        #: machine -> the sample object :meth:`record_sample` saw last.  For
        #: a sample that is never mutated, ``folded.get(machine) is sample``
        #: means folding it again would change nothing (the heartbeat
        #: roll-up's test; live and read-only for callers).
        self.folded: Dict[str, Mapping[str, float]] = {}
        #: (copy, score) of the sample the plugins scored last: a machine
        #: whose sample equals it takes both (a cluster's first samples
        #: are mostly equal) instead of scoring and copying its own
        self._last_scored: Optional[Tuple[Dict[str, float], float]] = None

    def add_plugin(self, plugin: HealthPlugin) -> None:
        """Administrators can add more check items at runtime."""
        self.plugins.append(plugin)
        self._total_weight += plugin.weight
        # The plugin set changed: memoized scores are no longer valid.
        for state in self._machines.values():
            state.last_sample = None
        self.folded.clear()
        self._last_scored = None

    def record_sample(self, machine: str, sample: Mapping[str, float],
                      now: float) -> float:
        """Fold one raw sample in; returns the combined score."""
        self.folded[machine] = sample
        state = self._machines.get(machine)
        if state is None:
            state = self._machines[machine] = _MachineHealth()
        elif state.last_sample == sample:
            # Identical raw sample to the last beat — the overwhelmingly
            # common case for a healthy machine.  Plugins are pure functions
            # of the sample, and below_since was already settled for this
            # score last time, so the whole fold can be skipped.
            return state.score
        last = self._last_scored
        if last is not None and last[0] == sample:
            copy, score = last
        else:
            weighted = 0.0
            for p in self.plugins:
                value = p.evaluate(sample)
                if value < 0.0:
                    value = 0.0
                elif value > 1.0:
                    value = 1.0
                weighted += p.weight * value
            score = weighted / self._total_weight
            copy = dict(sample)
            self._last_scored = (copy, score)
        state.last_sample = copy
        state.score = score
        if score < self.threshold:
            if machine not in self._below_since:
                self._below_since.set(machine, now)
        else:
            self._below_since.pop(machine)
        return score

    def score(self, machine: str) -> float:
        state = self._machines.get(machine)
        return state.score if state else 1.0

    def unavailable_machines(self, now: float) -> Set[str]:
        """Machines below threshold for longer than the grace period."""
        return set(self._below_since.elapsed_at_least(now, self.grace_seconds))

    def forget(self, machine: str) -> None:
        self._machines.pop(machine, None)
        self.folded.pop(machine, None)
        self._below_since.pop(machine)
