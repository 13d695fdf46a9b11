"""The four benchmark workloads: shapes, and the inputs a seed produces.

Every workload is a closed loop on the serial engine: a fixed job
population, each finished job replaced at the next slice end.  The shapes
(machines, jobs, mix, fault plan) are fixed; only ``duration`` scales with
the ``--seconds`` budget — see README.md, "Time budget".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: simulated seconds one driver slice advances (same as ``repro.api.simulate``)
SLICE = 2.0


@dataclass(frozen=True)
class Shape:
    """One workload's cluster, job population and window length."""

    name: str
    why: str
    racks: int
    machines_per_rack: int
    jobs: int
    mix: str
    #: simulated seconds of the timed window at the reference run length
    duration: float
    workload_scale: int = 100
    hint_fraction: float = -1.0
    #: keyword arguments of ``FaultPlan.random`` (None = fault-free)
    faults: Optional[dict] = None
    #: full set-ups timed per run; ``setup_s`` is their median
    setups: int = 3

    def scaled_duration(self, seconds: float) -> float:
        """Window length for a ``--seconds`` budget: whole slices, >= 1."""
        slices = max(1, round(self.duration * seconds / REFERENCE_SECONDS
                              / SLICE))
        return slices * SLICE

    def fault_plan(self, machines):
        """The workload's fault plan (None on the fault-free workloads).

        Drawn from a fixed stream, not from ``--seed``: which machines
        fail when is part of the workload's shape, like its size.  The
        seed varies the jobs and the network around the plan.
        """
        if self.faults is None:
            return None
        from repro.cluster.faults import FaultPlan
        from repro.sim.rng import SplitRandom
        return FaultPlan.random(machines, SplitRandom(FAULT_PLAN_SEED),
                                **self.faults)


#: root of the fault plans' random stream (the default seed 7 + 1000)
FAULT_PLAN_SEED = 1007

#: the ``--seconds`` value at which ``Shape.duration`` applies unscaled;
#: equals ``run_seconds`` in BENCHMARK.json
REFERENCE_SECONDS = 20

SHAPES = {shape.name: shape for shape in (
    Shape(
        name="steady_5k",
        why="the paper's 5,000-node / 1,000-job set-up on an idle cluster: "
            "event loop, bus and heartbeat plane do the work, the "
            "scheduler under 10 %",
        racks=100, machines_per_rack=50, jobs=1000, mix="paper",
        duration=20.0),
    Shape(
        name="sched_saturated",
        why="demand about 4x capacity, so every grant comes from a "
            "resource return through the machine/rack/cluster queues: "
            "scheduler, locality tree, pool and ledger carry the run",
        racks=10, machines_per_rack=20, jobs=600, mix="small",
        duration=50.0, workload_scale=10, hint_fraction=0.5, setups=9),
    Shape(
        name="faults_2k",
        why="node, agent, master and network faults from a fixed plan: "
            "full syncs, soft-state rebuild, retransmits, blacklist and "
            "AM restarts instead of the steady delta path",
        racks=50, machines_per_rack=40, jobs=600, mix="paper",
        duration=40.0,
        faults=dict(faults=60, start=8.0, window=45.0, recover_after=10.0,
                    master_failures=3, network_bursts=2),
        setups=5),
    Shape(
        name="wide_20k",
        why="the steady_5k plane at 4x the machines: set-up time, bytes "
            "per machine and the whole-pool kernel passes carry the run",
        racks=200, machines_per_rack=100, jobs=400, mix="paper",
        duration=16.0, setups=2),
)}
