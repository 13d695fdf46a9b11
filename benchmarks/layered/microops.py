"""Isolated micro-ops of single layers, at 5,000 and 20,000 machines.

Each op is a fixed number of calls into one layer's public entry points
on state sized like a cluster of that many machines; the reported cost
is the best of five repeats, in microseconds per op.  They show how a
layer's unit cost scales with cluster size without the rest of the
simulator around it.  Per-layer metrics only: never gated.

    python3 benchmarks/layered/microops.py
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Callable, Dict, Tuple

if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]
                           / "src"))

from repro import kernels
from repro.cluster.network import MessageBus
from repro.core.grant import AllocationLedger, Grant
from repro.core.locality import LocalityTree
from repro.core.messages import Envelope
from repro.core.pool import FreeResourcePool
from repro.core.protocol import StreamHub
from repro.core.resources import ResourceVector
from repro.core.units import UnitKey
from repro.kernels.heartbeat import make_time_column
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

SIZES = {"5k": 5_000, "20k": 20_000}
REPEATS = 5
MACHINES_PER_RACK = 50
CAPACITY = ResourceVector.of(cpu=440.0, memory=8 * 2048.0)
UNIT = ResourceVector.of(cpu=50, memory=2048)

perf = time.perf_counter


def machine_names(count: int):
    return [f"r{index // MACHINES_PER_RACK:03d}m{index:05d}"
            for index in range(count)]


def best_of(op: Callable[[], None], ops: int) -> float:
    """Microseconds per op: the fastest of REPEATS timed calls of ``op``,
    which performs ``ops`` operations."""
    best = float("inf")
    for _ in range(REPEATS):
        started = perf()
        op()
        best = min(best, perf() - started)
    return best * 1e6 / ops


def sim_timer(machines: int) -> float:
    """``call_after`` + ``step`` on the wheel tier, one periodic timer
    pending per machine."""
    loop = EventLoop()
    ops = 20_000

    def rearm() -> None:
        loop.call_after(1.0, rearm, wheel=True, recycle=True)

    for index in range(machines):
        loop.call_after(index / machines, rearm, wheel=True, recycle=True)
    return best_of(lambda: loop.run(max_events=ops), ops)


class _Sink(Actor):
    def handle_message(self, sender, message) -> None:
        pass


def network_send(machines: int) -> float:
    """``MessageBus.send`` to delivery, one registered actor per machine."""
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(1))
    names = [_Sink(loop, f"agent:{name}", bus).name
             for name in machine_names(machines)]
    ops = 8_000

    def op() -> None:
        send = bus.send
        for index in range(ops):
            send("fuxi-master", names[index % machines], index)
        loop.run()

    return best_of(op, ops)


def _pool(machines: int) -> Tuple[FreeResourcePool, list]:
    pool = FreeResourcePool()
    names = machine_names(machines)
    for index, name in enumerate(names):
        pool.add_machine(name, CAPACITY)
        pool.allocate(name, UNIT * (index % 8))
    return pool, names


def pool_rank(machines: int) -> float:
    """``best_fit_machines`` for a unit size the pool has not indexed yet:
    one whole-pool fit-count pass plus the ranking."""
    pool, _ = _pool(machines)
    shapes = iter(range(1, 1 + 4 * REPEATS))

    def op() -> None:
        for _ in range(4):
            size = ResourceVector.of(cpu=10.0 + next(shapes), memory=512.0)
            pool.best_fit_machines(size, limit=16)

    return best_of(op, 4)


def pool_alloc(machines: int) -> float:
    """``allocate`` + ``release`` with two shape indexes to maintain."""
    pool, names = _pool(machines)
    pool.best_fit_machines(UNIT, limit=1)
    pool.best_fit_machines(UNIT * 2, limit=1)
    ops = 3_000
    step = max(1, machines // ops)

    def op() -> None:
        for index in range(ops):
            name = names[index * step % machines]
            if index * step % machines % 8 == 7:
                continue  # this machine is full
            pool.allocate(name, UNIT)
            pool.release(name, UNIT)

    return best_of(op, ops)


def ledger_apply(machines: int) -> float:
    """``apply`` (a grant, then its revocation) + ``machine_digest``."""
    ledger = AllocationLedger()
    names = machine_names(machines)
    keys = [UnitKey(f"job-{index:04d}", index % 2) for index in range(500)]
    for index, name in enumerate(names):
        ledger.apply(Grant(keys[index % 500], name, 1 + index % 3))
    ops = 6_000

    def op() -> None:
        for index in range(ops // 2):
            name = names[index * 7 % machines]
            key = keys[index % 500]
            ledger.apply(Grant(key, name, 1))
            ledger.machine_digest(name)
            ledger.apply(Grant(key, name, -1))
            ledger.machine_digest(name)

    return best_of(op, ops)


def _tree(machines: int):
    names = machine_names(machines)
    tree = LocalityTree({name: name[:4] for name in names})
    demands = []
    for index in range(2_000):
        key = UnitKey(f"job-{index:04d}", 0)
        hinted = [names[(index * 37 + k * 11) % machines] for k in range(3)]
        hints = {name: 2 for name in hinted}
        racks = {hinted[0][:4]: 4}
        demands.append((key, 100 + index % 3, index, hints, racks, 20))
        tree.index(*demands[-1])
    return tree, names, demands


def locality_index(machines: int) -> float:
    """``remove`` + ``index`` of a demand hinting three machines and a
    rack, among 2,000 waiting demands."""
    tree, _, demands = _tree(machines)
    ops = 4_000

    def op() -> None:
        for index in range(ops):
            demand = demands[index % 2_000]
            tree.remove(demand[0])
            tree.index(*demand)

    return best_of(op, ops)


def locality_candidates(machines: int) -> float:
    """First candidate for a machine that freed up, then the re-index the
    scheduler does after granting it."""
    tree, names, demands = _tree(machines)
    by_key = {demand[0]: demand for demand in demands}
    ops = 4_000

    def wants(unit_key, level, name) -> int:
        return 1

    def op() -> None:
        for index in range(ops):
            machine = names[index * 37 % machines]
            for unit_key, _ in tree.candidates_for_machine(machine, wants):
                tree.index(*by_key[unit_key])
                break

    return best_of(op, ops)


class _Endpoint:
    """Stub actor: hands a hub's sends straight to the peer hub."""

    def __init__(self, name: str):
        self.name = name
        self.hub = StreamHub(self)
        self.peer: "_Endpoint" = self

    def send(self, dest: str, message) -> None:
        peer = self.peer
        if isinstance(message, Envelope):
            peer.hub.on_envelope(self.name, message.inner, peer.receiver)
        else:
            peer.hub.on_ack(message)

    def receiver(self, peer: str, kind: str):
        return self.hub.receiver_for(peer, kind, _ignore, _ignore)


def _ignore(payload) -> None:
    pass


def protocol_delta(machines: int) -> float:
    """``send_delta`` -> ``on_envelope`` -> ack -> ``on_ack``, round-robin
    over one outgoing stream per machine."""
    master, agents = _Endpoint("fuxi-master-0"), _Endpoint("agents")
    master.peer, agents.peer = agents, master
    dests = [f"agent:{name}" for name in machine_names(machines)]
    ops = 10_000
    hub = master.hub

    def op() -> None:
        for index in range(ops):
            hub.send_delta(dests[index * 3 % machines], "alloc", index)

    return best_of(op, ops)


def health_stale_scan(machines: int) -> float:
    """``make_time_column().stale``: the liveness roll-up's whole-cluster
    staleness pass."""
    column = make_time_column()
    for index, name in enumerate(machine_names(machines)):
        column.set(name, 100.0 + (index % 97) / 97.0)
    ops = 200

    def op() -> None:
        for _ in range(ops):
            column.stale(104.0, 5.0)

    return best_of(op, ops)


MICRO_OPS = {
    "sim.timer_op_us": sim_timer,
    "network.send_op_us": network_send,
    "pool.rank_op_us": pool_rank,
    "pool.alloc_op_us": pool_alloc,
    "ledger.apply_op_us": ledger_apply,
    "locality.index_op_us": locality_index,
    "locality.candidates_op_us": locality_candidates,
    "protocol.delta_op_us": protocol_delta,
    "health.stale_scan_op_us": health_stale_scan,
}


def run_all() -> Dict[str, Tuple[float, str]]:
    """Every micro-op at every size: ``{"<op>.<size>": (us, "us")}``."""
    kernels.select("auto")
    return {f"{name}.{label}": (op(machines), "us")
            for name, op in MICRO_OPS.items()
            for label, machines in SIZES.items()}


if __name__ == "__main__":
    begun = perf()
    for metric, (value, unit) in run_all().items():
        print(f"{metric:<34} {value:>10.3f} {unit}")
    print(f"total {perf() - begun:.1f} s")
