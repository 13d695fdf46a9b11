"""Block placement map — the Pangu distributed-filesystem stand-in.

The scheduler never reads file *contents*; what matters to Fuxi is **where
the blocks of an input file live**, because that drives the locality hints
in resource requests ("computation at best happens where data resides or at
least within the same network switch").  This module provides exactly that:
replicated block placement over the cluster's machines, plus the lookups the
job framework uses to derive machine/rack hints.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.rng import SplitRandom


@dataclass(frozen=True)
class Block:
    """One block of a file: id, size and replica locations."""

    file: str
    index: int
    size_mb: float
    replicas: Tuple[str, ...]

    @property
    def block_id(self) -> str:
        return f"{self.file}#{self.index}"


class _AllButSlice(abc.Sequence):
    """Read-only view of a list without the slice ``[start, stop)``.

    ``random.Random.choice`` reads a sequence through ``len`` and one
    ``[index]``, so drawing from this view consumes the stream exactly as
    drawing from the materialised list would, and returns the same item.
    """

    __slots__ = ("_items", "_start", "_gap", "_length")

    def __init__(self, items: List[str], start: int, stop: int):
        self._items = items
        self._start = start
        self._gap = stop - start
        self._length = len(items) - self._gap

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> str:
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError(index)
        return self._items[index if index < self._start
                           else index + self._gap]


class BlockStore:
    """Places file blocks on machines with rack-aware replication."""

    def __init__(self, machines: Sequence[str],
                 rack_of: Dict[str, str],
                 replication: int = 3,
                 block_size_mb: float = 256.0,
                 rng: Optional[SplitRandom] = None):
        if not machines:
            raise ValueError("block store needs at least one machine")
        self._machines = sorted(machines)
        self._rack_of = dict(rack_of)
        self.replication = min(replication, len(self._machines))
        self.block_size_mb = block_size_mb
        self._rng = (rng or SplitRandom(0)).stream("blockstore")
        self._files: Dict[str, List[Block]] = {}
        # rack -> machines outside that rack.  Membership is fixed after
        # construction, so the off-rack candidates for a replica's rack are
        # worked out once instead of scanning every machine per block: a
        # view that skips the rack's slice of the sorted machine list when
        # the rack is one (the usual naming), a list otherwise.
        self._off_rack_cache: Dict[Optional[str], Sequence[str]] = {}
        self._rack_spans: Optional[Dict[Optional[str], List[int]]] = None

    # --------------------------------------------------------------- #
    # writing
    # --------------------------------------------------------------- #

    def create_file(self, path: str, size_mb: float) -> List[Block]:
        """Create a file of ``size_mb``, splitting into blocks and placing them.

        Placement policy (HDFS/Pangu style): first replica on a random
        machine, second on a different rack when possible, rest anywhere.
        """
        if path in self._files:
            raise ValueError(f"file exists: {path!r}")
        if size_mb <= 0:
            raise ValueError(f"file size must be positive, got {size_mb}")
        blocks: List[Block] = []
        remaining = size_mb
        index = 0
        while remaining > 0:
            size = min(self.block_size_mb, remaining)
            replicas = self._place_replicas()
            blocks.append(Block(path, index, size, tuple(replicas)))
            remaining -= size
            index += 1
        self._files[path] = blocks
        return list(blocks)

    def _off_rack(self, rack: Optional[str]) -> Sequence[str]:
        machines = self._off_rack_cache.get(rack)
        if machines is None:
            first, last, count = self._spans()[rack]
            if last - first + 1 == count:
                machines = _AllButSlice(self._machines, first, last + 1)
            else:
                machines = [m for m in self._machines
                            if self._rack_of.get(m) != rack]
            self._off_rack_cache[rack] = machines
        return machines

    def _spans(self) -> Dict[Optional[str], List[int]]:
        """rack -> [first position, last position, member count] in the
        sorted machine list (one pass, on first use)."""
        spans = self._rack_spans
        if spans is None:
            spans = self._rack_spans = {}
            rack_of = self._rack_of.get
            for position, machine in enumerate(self._machines):
                span = spans.get(rack_of(machine))
                if span is None:
                    spans[rack_of(machine)] = [position, position, 1]
                else:
                    span[1] = position
                    span[2] += 1
        return spans

    def _place_replicas(self) -> List[str]:
        first = self._rng.choice(self._machines)
        replicas = [first]
        # ``first`` is never off its own rack, so the candidate list is a
        # pure function of the rack (cached above).
        off_rack = self._off_rack(self._rack_of.get(first))
        if off_rack and self.replication > 1:
            replicas.append(self._rng.choice(off_rack))
        while len(replicas) < self.replication:
            candidate = self._rng.choice(self._machines)
            if candidate not in replicas:
                replicas.append(candidate)
        return replicas

    # --------------------------------------------------------------- #
    # reading / locality
    # --------------------------------------------------------------- #

    def exists(self, path: str) -> bool:
        return path in self._files

    def blocks(self, path: str) -> List[Block]:
        try:
            return list(self._files[path])
        except KeyError:
            raise FileNotFoundError(path) from None

    def file_size_mb(self, path: str) -> float:
        return sum(b.size_mb for b in self.blocks(path))

    def locality_hints(self, path: str) -> Tuple[Dict[str, int], Dict[str, int]]:
        """(machine hints, rack hints): how many blocks live on each.

        A task reading this file would ideally place one instance per block
        on a machine holding a replica, or failing that in a replica's rack.
        """
        machine_hints: Dict[str, int] = {}
        rack_hints: Dict[str, int] = {}
        for block in self.blocks(path):
            primary = block.replicas[0]
            machine_hints[primary] = machine_hints.get(primary, 0) + 1
            rack = self._rack_of.get(primary, "")
            if rack:
                rack_hints[rack] = rack_hints.get(rack, 0) + 1
        return machine_hints, rack_hints

    def drop_machine(self, machine: str) -> int:
        """Machine died: remove it from replica sets.  Returns blocks touched.

        Blocks whose last replica disappears stay addressable (re-replication
        is Pangu's job, not Fuxi's); reads then fall back to remote racks.
        """
        touched = 0
        for path, blocks in self._files.items():
            for i, block in enumerate(blocks):
                if machine in block.replicas:
                    replicas = tuple(r for r in block.replicas if r != machine)
                    blocks[i] = Block(block.file, block.index, block.size_mb,
                                      replicas or block.replicas)
                    touched += 1
        return touched
