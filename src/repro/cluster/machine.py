"""Machine model: static spec plus mutable fault/health state.

The testbed machines in the paper are 6-core Xeons with 96 GB memory and
12×2 TB disks; :func:`MachineSpec.testbed` builds that shape.  The mutable
:class:`MachineState` carries the flags the fault injector flips and the
agents/workers consult (down, slow factor, worker-launch failures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.resources import ResourceVector


@dataclass(frozen=True)
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


@dataclass
class MachineState:
    """Mutable per-machine condition the fault injector manipulates."""

    spec: MachineSpec
    down: bool = False
    slow_factor: float = 1.0          # execution time multiplier (>1 = slower)
    launch_failures: bool = False     # PartialWorkerFailure: workers won't start
    disk_errors: float = 0.0          # fed into the health sample
    net_errors: float = 0.0
    load1: float = 0.0
    _sample: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if name in _SAMPLE_INPUTS and getattr(self, name, None) != value:
            object.__setattr__(self, "_sample", None)
        object.__setattr__(self, name, value)

    def health_sample(self) -> Dict[str, float]:
        """Raw sample an agent would collect from the OS for health plugins.

        One cached dict, **replaced, never mutated**, when a field it is
        built from changes: a heartbeat in flight keeps the sample of its
        send time by holding the reference, and "the same object as last
        beat" certifies "the same sample" (the master's roll-up relies on
        it).  Callers must not write to it.
        """
        sample = self._sample
        if sample is None:
            sample = self._sample = {
                "disk_errors": self.disk_errors,
                "disk_util": min(self.load1 / max(self.spec.cores, 1), 1.0),
                "load1": self.load1,
                "cores": float(self.spec.cores),
                "net_errors": self.net_errors,
            }
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
