"""Cluster topology: machines grouped into racks under one cluster root.

Mirrors the paper's three-level hierarchy (§3.2.2): "a machine can have
dozens of CPU cores ... a rack consists of tens or hundreds of machines ...
tens of racks with thousands of machines constitute a cluster."
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cluster.machine import MachineSpec, MachineState
from repro.core.resources import ResourceVector


class ClusterTopology:
    """The set of machines, their racks, and their mutable states."""

    def __init__(self, name: str = "cluster"):
        self.name = name
        self._machines: Dict[str, MachineState] = {}
        self._racks: Dict[str, List[str]] = {}
        #: health-sample inputs -> the one sample dict the machines with
        #: those inputs share (see MachineState.health_sample)
        self.samples: Dict[tuple, Dict[str, float]] = {}

    # --------------------------------------------------------------- #
    # construction
    # --------------------------------------------------------------- #

    def add_machine(self, spec: MachineSpec) -> MachineState:
        if spec.name in self._machines:
            raise ValueError(f"duplicate machine {spec.name!r}")
        state = MachineState(spec=spec, shared_samples=self.samples)
        self._machines[spec.name] = state
        self._racks.setdefault(spec.rack, []).append(spec.name)
        return state

    @classmethod
    def build(cls, racks: int, machines_per_rack: int,
              capacity: Optional[ResourceVector] = None,
              name: str = "cluster") -> "ClusterTopology":
        """Build a regular topology; machine names are ``r03m017`` style.

        With no explicit capacity each machine gets the paper's testbed shape.
        """
        topology = cls(name=name)
        for rack_index in range(racks):
            rack = f"rack{rack_index:02d}"
            for machine_index in range(machines_per_rack):
                machine = f"r{rack_index:02d}m{machine_index:03d}"
                if capacity is None:
                    spec = MachineSpec.testbed(machine, rack)
                else:
                    spec = MachineSpec(name=machine, rack=rack, capacity=capacity)
                topology.add_machine(spec)
        return topology

    # --------------------------------------------------------------- #
    # lookup
    # --------------------------------------------------------------- #

    def machines(self) -> List[str]:
        return sorted(self._machines)

    def racks(self) -> List[str]:
        return sorted(self._racks)

    def machines_in_rack(self, rack: str) -> List[str]:
        return list(self._racks.get(rack, ()))

    def rack_of(self, machine: str) -> str:
        return self._machines[machine].spec.rack

    def spec(self, machine: str) -> MachineSpec:
        return self._machines[machine].spec

    def state(self, machine: str) -> MachineState:
        return self._machines[machine]

    def states(self) -> Iterator[MachineState]:
        for name in sorted(self._machines):
            yield self._machines[name]

    def machine_rack_map(self) -> Dict[str, str]:
        return {name: state.spec.rack for name, state in self._machines.items()}

    def total_capacity(self) -> ResourceVector:
        acc = ResourceVector()
        for state in self._machines.values():
            acc = acc + state.spec.capacity
        return acc

    def __len__(self) -> int:
        return len(self._machines)

    def __contains__(self, machine: str) -> bool:
        return machine in self._machines
