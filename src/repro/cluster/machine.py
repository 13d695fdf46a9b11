"""Machine model: static spec plus mutable fault/health state.

The testbed machines in the paper are 6-core Xeons with 96 GB memory and
12×2 TB disks; :func:`MachineSpec.testbed` builds that shape.  The mutable
:class:`MachineState` carries the flags the fault injector flips and the
agents/workers consult (down, slow factor, worker-launch failures).

Both are slotted: a 100,000-machine cluster holds one of each per machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.resources import ResourceVector


@dataclass(frozen=True, slots=True)
class MachineSpec:
    """Static description of one machine."""

    name: str
    rack: str
    capacity: ResourceVector
    cores: int = 6
    disks: int = 12
    disk_bandwidth_mbps: float = 100.0   # per-disk sequential MB/s
    net_bandwidth_mbps: float = 125.0    # one gigabit port ≈ 125 MB/s

    @classmethod
    def testbed(cls, name: str, rack: str,
                virtual: Dict[str, float] | None = None) -> "MachineSpec":
        """The paper's testbed machine: 12 cores (2×6), 96 GB, 12×2 TB disks."""
        capacity = ResourceVector.of(cpu=1200, memory=96 * 1024, **(virtual or {}))
        return cls(name=name, rack=rack, capacity=capacity, cores=12, disks=12,
                   disk_bandwidth_mbps=100.0, net_bandwidth_mbps=2 * 125.0)

    @property
    def disk_bandwidth_total(self) -> float:
        """Aggregate sequential disk bandwidth in MB/s."""
        return self.disks * self.disk_bandwidth_mbps


@dataclass(slots=True)
class MachineState:
    """Mutable per-machine condition the fault injector manipulates.

    ``shared_samples`` is the owning topology's table of health samples
    (:attr:`ClusterTopology.samples`): machines whose sample inputs are
    equal hold one sample dict between them.  Without one, each machine
    builds its own.
    """

    # first, so that __init__ sets it before any field it is built from
    _sample: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False)
    spec: MachineSpec
    down: bool = False
    slow_factor: float = 1.0          # execution time multiplier (>1 = slower)
    launch_failures: bool = False     # PartialWorkerFailure: workers won't start
    disk_errors: float = 0.0          # fed into the health sample
    net_errors: float = 0.0
    load1: float = 0.0
    shared_samples: Optional[Dict[tuple, Dict[str, float]]] = field(
        default=None, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        # Only a cached sample can go stale, and with one cached every
        # input is set: no read of an empty slot (which raises inside
        # getattr, a cost on each of a big build's machines).
        if (name in _SAMPLE_INPUTS and self._sample is not None
                and getattr(self, name) != value):
            object.__setattr__(self, "_sample", None)
        object.__setattr__(self, name, value)

    def health_sample(self) -> Dict[str, float]:
        """Raw sample an agent would collect from the OS for health plugins.

        One cached dict, **replaced, never mutated**, when a field it is
        built from changes: a heartbeat in flight keeps the sample of its
        send time by holding the reference, and "the same object as last
        beat" certifies "the same sample" (the master's roll-up relies on
        it).  Machines with equal inputs share the dict through
        ``shared_samples``, so a write to it would change every one of
        them: callers must not write to it.
        """
        sample = self._sample
        if sample is None:
            cores = self.spec.cores
            key = (self.disk_errors, self.net_errors, self.load1, cores)
            shared = self.shared_samples
            if shared is not None:
                sample = shared.get(key)
            if sample is None:
                sample = {
                    "disk_errors": self.disk_errors,
                    "disk_util": min(self.load1 / max(cores, 1), 1.0),
                    "load1": self.load1,
                    "cores": float(cores),
                    "net_errors": self.net_errors,
                }
                if shared is not None:
                    shared[key] = sample
            self._sample = sample
        return sample

    def reset_faults(self) -> None:
        self.down = False
        self.slow_factor = 1.0
        self.launch_failures = False
        self.disk_errors = 0.0
        self.net_errors = 0.0
        self.load1 = 0.0


#: the MachineState fields :meth:`MachineState.health_sample` reads
_SAMPLE_INPUTS = frozenset(("spec", "disk_errors", "net_errors", "load1"))
