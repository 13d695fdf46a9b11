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

**One frame per send.**  :meth:`MessageBus.plan_delays` is the definition of
a message's delays; :meth:`MessageBus.send` computes the same bits inline
and puts the delivery on the loop's heap itself, so a message costs one
Python frame on the way out instead of eight (DESIGN.md, "The message
path").

**Delivery runs.**  Messages sent on many edges in the same instant — a
heartbeat cohort's beats to the master (:mod:`repro.core.heartbeat`), the
master's post-recovery push to every agent — reach the bus as one batch:
:meth:`MessageBus.send_run` draws every edge's delay in one kernel pass
(:mod:`repro.kernels.edgedelay`, bit-identical to
:meth:`MessageBus.plan_delays`), reserves one tie-break sequence number per
message and lets the batch ride one :class:`~repro.sim.events.EventSeries`
instead of one delivery event per message.  Each message still arrives at
its own ``(time, seq)`` position; a batch whose one destination can fold
messages that change nothing does so for a whole chunk, and every other
message goes through :meth:`MessageBus._deliver` as a single send would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import kernels
from repro.kernels.edgedelay import EdgeColumns, arrival_order
from repro.sim.actor import Actor
from repro.sim.events import Event, EventLoop
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
    """The edges of a fixed list of (sender, destination) pairs: many
    senders to one destination (a heartbeat cohort) or one sender to many
    (the master's post-recovery push).

    Built once per pair list by :meth:`MessageBus.edge_group`; holds each
    edge's live ``[key, epsilon, next_message_index]`` state (shared with
    single sends on the same edge) and, under the numpy backend, the
    constant key / epsilon columns the delay kernel works on.  A list may
    name one edge twice (an agent restarted twice in one step).
    """

    __slots__ = ("senders", "dests", "dest", "states", "columns")

    def __init__(self, senders: List[str], dests: List[str],
                 dest: Optional[str], states: List[list]):
        self.senders = senders
        self.dests = dests
        #: the destination every pair shares, or None
        self.dest = dest
        self.states = states
        self.columns = None
        if kernels.np() is not None:
            self.columns = EdgeColumns([state[0] for state in states],
                                       [state[1] for state in states])


class Messages:
    """A :meth:`MessageBus.send_run` batch of ready-made messages, by pair
    position, for a group without a shared destination (nothing is
    offered for folding there)."""

    __slots__ = ("messages",)

    def __init__(self, messages: List[Any]):
        self.messages = messages

    def message(self, position: int) -> Any:
        """Hand message ``position`` over, once: the batch lets go of it
        then, as a delivery event lets go of its arguments (a 100,000-
        machine push would otherwise hold every envelope to its end)."""
        message = self.messages[position]
        self.messages[position] = None
        return message


class _ReservedSeqs:
    """The sequence numbers of a run nothing was dropped from,
    ``first + order[i]``, computed when read: a series reads a few per
    invocation, and a run of 100,000 need not hold an int object each."""

    __slots__ = ("first", "order")

    def __init__(self, first: int, order: List[int]):
        self.first = first
        self.order = order

    def __getitem__(self, index: int) -> int:
        return self.first + self.order[index]


class _DeliveryRun:
    """The messages of one :meth:`MessageBus.send_run`, in arrival order:
    the consumer of their :class:`~repro.sim.events.EventSeries`."""

    __slots__ = ("bus", "senders", "dests", "dest", "batch", "order",
                 "times")

    def __init__(self, bus: "MessageBus", group: EdgeGroup, batch: Any,
                 order: List[int], times: List[float]):
        self.bus = bus
        # the names, not the group: a one-off group's delay columns need
        # not outlive the send
        self.senders, self.dests, self.dest = (group.senders, group.dests,
                                               group.dest)
        self.batch = batch
        self.order = order
        self.times = times

    def consume(self, start: int, end: int) -> int:
        """Deliver arrivals ``[start, end)``; returns where it stopped.

        No event lies between them, so a shared destination is resolved
        once: a missing or crashed one drops them all, one that can fold
        messages in bulk is offered the chunk.  The first message left —
        every message of a fan-out — is delivered the way
        :meth:`MessageBus.send` delivers, alone.
        """
        bus = self.bus
        if self.dest is not None:
            actor = bus._actors.get(bus.resolve(self.dest))
            if actor is None or not actor.alive:
                bus.messages_dropped += end - start
                return end
            stop = self.batch.absorb(actor, self.order, self.times, start,
                                     end)
            if stop > start:
                bus.messages_delivered += stop - start
                return stop
        position = self.order[start]
        bus._deliver(self.senders[position], self.dests[position],
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
        """Send one message: :meth:`plan_delays` and one recycled
        ``loop.call_after(delay, self._deliver, ...)`` per delivery, in one
        frame.

        Every message pays for this call, so the common case is written
        out: the edge's slot-2 jitter draw (the splitmix64 finalizer of
        :func:`_mix64`, inline) and the loop's ``call_at`` body.  The drop
        draw is inline too, since a network burst turns it on for every
        send; duplication and reordering take :meth:`_one_delay`.  The
        config is read on every send (bursts change it mid-run), and the
        result — delays, counters, tie-break sequence numbers — is bit for
        bit that of the two calls it stands for.
        """
        self.messages_sent += 1
        state = self._edges.get((sender, dest))
        if state is None:
            state = self._edge(sender, dest)
        key, epsilon, index = state
        state[2] = index + 1
        base = key ^ (index << 3)
        config = self.config
        if config.drop_prob:
            x = base  # slot 0
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
            if ((x ^ (x >> 31)) >> 11) * _TO_UNIT < config.drop_prob:
                self.messages_dropped += 1
                return
        if config.reorder_prob or config.duplicate_prob:
            delay = self._one_delay(config, base, epsilon, 2)
            if (config.duplicate_prob
                    and _draw(base, 1) < config.duplicate_prob):
                self.messages_duplicated += 1
                self.loop.call_after(delay, self._deliver, sender, dest,
                                     message, recycle=True)
                delay = self._one_delay(config, base, epsilon, 5)
        else:
            delay = config.latency + epsilon
            if config.jitter:
                x = base ^ 2
                x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
                x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
                delay += ((x ^ (x >> 31)) >> 11) * _TO_UNIT * config.jitter
        # loop.call_after(delay, self._deliver, sender, dest, message,
        # recycle=True), inline: delivery events are fire-and-forget, so
        # the loop reuses the Event object (see EventLoop.call_at).
        loop = self.loop
        when = loop._now + delay
        seq = loop._seq
        loop._seq = seq + 1
        free = loop._free
        if free:
            event = free.pop()
            event.time = when
            event.seq = seq
            event.callback = self._deliver
            event.args = (sender, dest, message)
            event.done = False
        else:
            event = Event(when, seq, self._deliver, (sender, dest, message),
                          recycle=True)
        heappush(loop._heap, (when, seq, event))
        loop._live += 1

    def _deliver(self, sender: str, dest: str, message: Any) -> None:
        actor = self._actors.get(self._aliases.get(dest, dest))
        if actor is None or not actor.alive:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        actor.deliver(sender, message)

    # --------------------------------------------------------------- #
    # delivery runs: one message on each edge of a group
    # --------------------------------------------------------------- #

    def edge_group(self, senders: Union[str, Sequence[str]],
                   dests: Union[str, Sequence[str]]) -> EdgeGroup:
        """The edges of the pairs ``zip(senders, dests)``, for
        :meth:`send_run`; a single name on one side is every pair's."""
        dest = dests if isinstance(dests, str) else None
        if isinstance(senders, str):
            senders = [senders] * len(dests)
        senders = list(senders)
        dests = [dest] * len(senders) if dest is not None else list(dests)
        return EdgeGroup(senders, dests, dest,
                         [self._edge(sender, to)
                          for sender, to in zip(senders, dests)])

    def plan_delays_many(self, group: EdgeGroup) -> Tuple[Any, Any]:
        """:meth:`plan_delays` for the next message on every edge of
        ``group`` at once, for a transport that neither duplicates nor
        reorders.  Returns ``(delays, dropped)`` columns — lists on the
        python backend, scratch arrays on numpy; ``dropped`` is ``None``
        when nothing can be — bit-identical to one :meth:`plan_delays` call
        per pair, in pair order, advancing each edge counter once per pair.
        """
        config = self.config
        if config.duplicate_prob or config.reorder_prob:
            raise ValueError("plan_delays_many does not model duplication "
                             "or reordering; send the messages one by one")
        if group.columns is None:
            plan_one = self.plan_delays
            planned = [plan_one(sender, dest)
                       for sender, dest in zip(group.senders, group.dests)]
            delays = [0.0 if one is None else one[0] for one in planned]
            if not config.drop_prob:
                return delays, None
            return delays, [one is None for one in planned]
        # each message's index is its edge counter at its turn, so an edge
        # named twice gets two consecutive slots, as two sends would
        indices = []
        for state in group.states:
            indices.append(state[2])
            state[2] += 1
        return group.columns.delays(indices, config.latency, config.jitter,
                                    config.drop_prob)

    def send_run(self, group: EdgeGroup, batch: Any) -> None:
        """Send one message on every edge of ``group``, now.

        ``batch`` stands for the messages, by pair position:
        ``batch.message(position)`` materialises one, and
        ``batch.absorb(actor, order, times, start, end)`` lets a shared
        destination fold the arrivals ``order[start:end]`` (pair
        positions; ``times`` are their arrival times) that change nothing
        and returns the index of the first it left alone.  Counters,
        per-edge delays and arrival order are exactly those of
        ``send(sender, dest, batch.message(position))`` per pair, in pair
        order.
        """
        sent = len(group.senders)
        self.messages_sent += sent
        order, times = arrival_order(self.loop.now,
                                     *self.plan_delays_many(group))
        arriving = len(order)
        self.messages_dropped += sent - arriving
        if not arriving:
            return
        # One reserved sequence number per message that travels, in pair
        # order — where send()'s call_after would have taken it.
        first = self.loop.reserve_seqs(arriving)
        if arriving == sent:
            seqs = _ReservedSeqs(first, order)
        else:
            rank = {position: first + index
                    for index, position in enumerate(sorted(order))}
            seqs = [rank[position] for position in order]
        run = _DeliveryRun(self, group, batch, order, times)
        self.loop.call_series(times, seqs, run.consume)


def _draw(base: int, slot: int) -> float:
    """The slot-th uniform [0,1) draw of one message's randomness."""
    return (_mix64(base ^ slot) >> 11) * _TO_UNIT


@lru_cache(maxsize=1 << 16)
def hash_str(text: str) -> int:
    """Process-stable 64-bit hash of a string (``hash()`` is salted).

    Memoised per name: every new edge hashes both of its ends, and the
    same agent, master and application names end thousands of edges."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = (acc ^ byte) * 0x100000001B3 & _M64
    return acc
