"""Simulated message transport between actors.

Delivers messages with configurable latency and, when enabled, probabilistic
duplication and reordering — the two transport pathologies the incremental
protocol (paper §3.1) must survive: "we must ensure the idempotency of the
handling of duplicated delta messages, which could happen as a result of
temporary communication failure."

Messages to crashed actors (or to unknown addresses — e.g. an agent on a
machine that was powered off) are silently dropped, exactly like the real
failures look to peers.  Aliases support logical addressing: everyone sends
to ``"fuxi-master"`` and the elected primary points the alias at itself.

Randomness is **edge-keyed**: every (sender, dest) pair owns an independent
counter-indexed hash stream, so the drop/jitter/duplicate draws of the n-th
message on an edge are a pure function of ``(seed, sender, dest, n)`` — not
of how sends on *other* edges interleave with it.  A change that adds or
removes traffic on one edge (a fault, a retransmit, one more job) leaves
the delivery times on every other edge where they were, so the committed
grant-stream digests only move when the scheduling itself does.

Each edge additionally adds a fixed sub-microsecond epsilon (derived from
the edge key, bounded by ``~1e-6`` simulated seconds) to every delivery
delay.  Two messages travelling *different* edges therefore never arrive at
exactly the same float timestamp, which removes the only case where the
heap's global tie-break sequence — a function of every send in the run, not
of the edge — could decide the order of cross-edge deliveries.

**Delivery runs.**  Senders that send to one destination in the same
instant (a heartbeat cohort, :mod:`repro.core.heartbeat`) hand the bus the
whole batch: :meth:`MessageBus.send_run` draws every edge's delay in one
kernel pass (:mod:`repro.kernels.edgedelay`, bit-identical to
:meth:`MessageBus.plan_delays`), reserves one tie-break sequence number per
message and lets the batch ride one :class:`~repro.sim.events.EventSeries`
instead of one delivery event per message.  Each message still arrives at
its own ``(time, seq)`` position; a batch whose destination can fold
messages that change nothing does so for a whole chunk, and every other
message goes through :meth:`MessageBus._deliver` as a single send would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import kernels
from repro.kernels.edgedelay import EdgeColumns, arrival_order
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

_M64 = (1 << 64) - 1

#: 2**-53: maps the top 53 bits of a 64-bit hash onto [0, 1)
_TO_UNIT = 1.0 / (1 << 53)

#: per-edge delay epsilon quantum; max epsilon = 0x3FFFFF * 2**-42 ~ 1e-6 s.
#: The quantum stays well above the float ulp at sim times of a few hundred
#: seconds (ulp(512) = 2**-44), so distinct epsilons survive the addition
#: onto the send timestamp instead of collapsing to the same float.
_EPS_QUANTUM = 2.0 ** -42


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a strong, cheap 64-bit bijective hash."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


@dataclass
class NetworkConfig:
    """Transport behaviour knobs.

    Attributes:
        latency: base one-way delivery latency in seconds.
        jitter: extra uniform random latency in [0, jitter].
        duplicate_prob: probability a message is delivered twice.
        reorder_jitter: extra random latency occasionally applied to model
            reordering (applied with probability ``reorder_prob``).
        drop_prob: probability a message is silently lost.
    """

    latency: float = 0.001
    jitter: float = 0.0005
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_jitter: float = 0.01
    drop_prob: float = 0.0


class EdgeGroup:
    """The edges from a fixed list of senders to one destination.

    Built once per sender list by :meth:`MessageBus.edge_group`; holds each
    edge's live ``[key, epsilon, next_message_index]`` state (shared with
    single sends on the same edge) and, under the numpy backend, the
    constant key / epsilon columns the delay kernel works on.
    """

    __slots__ = ("senders", "dest", "states", "columns")

    def __init__(self, senders: List[str], dest: str, states: List[list]):
        self.senders = senders
        self.dest = dest
        self.states = states
        self.columns = None
        if kernels.np() is not None:
            self.columns = EdgeColumns([state[0] for state in states],
                                       [state[1] for state in states])


class _DeliveryRun:
    """The messages of one :meth:`MessageBus.send_run`, in arrival order:
    the consumer of their :class:`~repro.sim.events.EventSeries`."""

    __slots__ = ("bus", "group", "batch", "order", "times")

    def __init__(self, bus: "MessageBus", group: EdgeGroup, batch: Any,
                 order: List[int], times: List[float]):
        self.bus = bus
        self.group = group
        self.batch = batch
        self.order = order
        self.times = times

    def consume(self, start: int, end: int) -> int:
        """Deliver arrivals ``[start, end)``; returns where it stopped.

        No event lies between them, so the destination is resolved once: a
        missing or crashed one drops them all, one that can fold messages
        in bulk is offered the chunk, and the first message it does not
        fold is delivered the way :meth:`MessageBus.send` delivers, alone.
        """
        bus = self.bus
        group = self.group
        actor = bus._actors.get(bus.resolve(group.dest))
        if actor is None or not actor.alive:
            bus.messages_dropped += end - start
            return end
        stop = self.batch.absorb(actor, self.order, self.times, start, end)
        if stop > start:
            bus.messages_delivered += stop - start
            return stop
        position = self.order[start]
        bus._deliver(group.senders[position], group.dest,
                     self.batch.message(position))
        return start + 1


class MessageBus:
    """Registry of actors plus the delivery machinery."""

    def __init__(self, loop: EventLoop, rng: Optional[SplitRandom] = None,
                 config: Optional[NetworkConfig] = None):
        self.loop = loop
        self.config = config or NetworkConfig()
        self._net_seed = (rng or SplitRandom(0)).child_seed("network")
        # (sender, dest) -> [edge_key, epsilon, next_message_index]
        self._edges: Dict[Tuple[str, str], list] = {}
        self._actors: Dict[str, Actor] = {}
        self._aliases: Dict[str, str] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        #: the sender cohort opened last on this bus; senders arming in
        #: the same loop step join it (see repro.core.heartbeat)
        self.open_cohort: Any = None

    # --------------------------------------------------------------- #
    # registry
    # --------------------------------------------------------------- #

    def register(self, actor: Actor) -> None:
        self._actors[actor.name] = actor

    def unregister(self, name: str) -> None:
        self._actors.pop(name, None)

    def set_alias(self, alias: str, target: str) -> None:
        self._aliases[alias] = target

    def resolve(self, name: str) -> str:
        return self._aliases.get(name, name)

    def actor(self, name: str) -> Optional[Actor]:
        return self._actors.get(self.resolve(name))

    # --------------------------------------------------------------- #
    # edge-keyed randomness
    # --------------------------------------------------------------- #

    def _edge(self, sender: str, dest: str) -> list:
        state = self._edges.get((sender, dest))
        if state is None:
            key = _mix64(self._net_seed
                         ^ _mix64(hash_str(sender) ^ _mix64(hash_str(dest))))
            state = [key, ((key & 0x3FFFFF) + 1) * _EPS_QUANTUM, 0]
            self._edges[(sender, dest)] = state
        return state

    def plan_delays(self, sender: str, dest: str) -> Optional[List[float]]:
        """Delivery delays for the next message on this edge.

        Returns ``None`` when the message is dropped, otherwise one delay
        per delivery (two entries when the transport duplicates).  Consumes
        exactly one edge-counter slot; the result is a pure function of
        ``(seed, sender, dest, message_index, config)``.
        """
        state = self._edge(sender, dest)
        key, epsilon, index = state
        state[2] = index + 1
        base = key ^ (index << 3)
        config = self.config
        if config.drop_prob and _draw(base, 0) < config.drop_prob:
            return None
        delays = [self._one_delay(config, base, epsilon, 2)]
        if config.duplicate_prob and _draw(base, 1) < config.duplicate_prob:
            delays.append(self._one_delay(config, base, epsilon, 5))
        return delays

    def _one_delay(self, config: NetworkConfig, base: int, epsilon: float,
                   slot: int) -> float:
        delay = config.latency + epsilon
        if config.jitter:
            delay += _draw(base, slot) * config.jitter
        if (config.reorder_prob
                and _draw(base, slot + 1) < config.reorder_prob):
            delay += _draw(base, slot + 2) * config.reorder_jitter
        return delay

    # --------------------------------------------------------------- #
    # delivery
    # --------------------------------------------------------------- #

    def send(self, sender: str, dest: str, message: Any) -> None:
        self.messages_sent += 1
        delays = self.plan_delays(sender, dest)
        if delays is None:
            self.messages_dropped += 1
            return
        if len(delays) > 1:
            self.messages_duplicated += 1
        for delay in delays:
            # recycle: delivery events are fire-and-forget — nothing retains
            # the handle, so the loop can reuse the Event object.
            self.loop.call_after(delay, self._deliver, sender, dest, message,
                                 recycle=True)

    def _deliver(self, sender: str, dest: str, message: Any) -> None:
        actor = self._actors.get(self.resolve(dest))
        if actor is None or not actor.alive:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        actor.deliver(sender, message)

    # --------------------------------------------------------------- #
    # delivery runs: one message from each of many senders
    # --------------------------------------------------------------- #

    def edge_group(self, senders: Sequence[str], dest: str) -> EdgeGroup:
        """The edges from ``senders`` to ``dest``, for :meth:`send_run`."""
        senders = list(senders)
        return EdgeGroup(senders, dest,
                         [self._edge(sender, dest) for sender in senders])

    def plan_delays_many(self, group: EdgeGroup) -> Tuple[Any, Any]:
        """:meth:`plan_delays` for the next message on every edge of
        ``group`` at once, for a transport that neither duplicates nor
        reorders.  Returns ``(delays, dropped)`` columns — lists on the
        python backend, scratch arrays on numpy; ``dropped`` is ``None``
        when nothing can be — bit-identical to one :meth:`plan_delays` call
        per sender, and advances every edge counter by exactly one.
        """
        config = self.config
        if config.duplicate_prob or config.reorder_prob:
            raise ValueError("plan_delays_many does not model duplication "
                             "or reordering; send the messages one by one")
        if group.columns is None:
            plan_one, dest = self.plan_delays, group.dest
            planned = [plan_one(sender, dest) for sender in group.senders]
            delays = [0.0 if one is None else one[0] for one in planned]
            if not config.drop_prob:
                return delays, None
            return delays, [one is None for one in planned]
        states = group.states
        indices = [state[2] for state in states]
        for state in states:
            state[2] += 1
        return group.columns.delays(indices, config.latency, config.jitter,
                                    config.drop_prob)

    def send_run(self, group: EdgeGroup, batch: Any) -> None:
        """Send one message from every sender of ``group``, now.

        ``batch`` stands for the messages, by sender position:
        ``batch.message(position)`` materialises one, and
        ``batch.absorb(actor, order, times, start, end)`` lets the
        destination fold the arrivals ``order[start:end]`` (sender
        positions; ``times`` are their arrival times) that change nothing
        and returns the index of the first it left alone.  Counters,
        per-edge delays and arrival order are exactly those of
        ``send(sender, dest, batch.message(position))`` per sender, in
        sender order.
        """
        sent = len(group.senders)
        self.messages_sent += sent
        order, times = arrival_order(self.loop.now,
                                     *self.plan_delays_many(group))
        arriving = len(order)
        self.messages_dropped += sent - arriving
        if not arriving:
            return
        # One reserved sequence number per message that travels, in sender
        # order — where send()'s call_after would have taken it.
        first = self.loop.reserve_seqs(arriving)
        if arriving == sent:
            seqs = [first + position for position in order]
        else:
            rank = {position: first + index
                    for index, position in enumerate(sorted(order))}
            seqs = [rank[position] for position in order]
        run = _DeliveryRun(self, group, batch, order, times)
        self.loop.call_series(times, seqs, run.consume)


def _draw(base: int, slot: int) -> float:
    """The slot-th uniform [0,1) draw of one message's randomness."""
    return (_mix64(base ^ slot) >> 11) * _TO_UNIT


def hash_str(text: str) -> int:
    """Process-stable 64-bit hash of a string (``hash()`` is salted)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = (acc ^ byte) * 0x100000001B3 & _M64
    return acc
