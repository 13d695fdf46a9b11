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

Randomness is **sender-keyed**: the drop/jitter/duplicate draws of the
n-th message a name sends since it was last registered are a pure
function of ``(seed, sender, n)``, whoever it goes to and however other
senders interleave.  What is given up is per-edge isolation: adding or
removing one message moves that sender's later draws to every
destination — acceptable, since an exact change moves no message and a
stream-moving one re-records every pin anyway.  The bus keeps one
slotted state per sender, made at its first send and dropped when the
name is unregistered: dead workers and reaped job masters take theirs.

Each sender adds a fixed epsilon (derived from its key, at most ``~1e-6``
simulated seconds) to every delay, so messages from *different* senders
never arrive at exactly the same float timestamp (bar a 22-bit epsilon
collision), and the heap's global tie-break sequence — a function of
every send in the run — never orders them.  Under a jitter-free
transport one sender's messages of one instant do tie, to any
destinations; they arrive in sequence order, the sender's own send order.

**One frame per send.**  :meth:`MessageBus.plan_delays` is the definition of
a message's delays; :meth:`MessageBus.send` computes the same bits inline
and puts the delivery on the loop's heap itself, so a message costs one
Python frame on the way out instead of eight (DESIGN.md, "The message
path").

**Delivery runs.**  Messages sent on many edges in the same instant — a
heartbeat cohort's beats to the master (:mod:`repro.core.heartbeat`), the
master's post-recovery push to every agent — reach the bus as one batch:
:meth:`MessageBus.send_run` draws every message's delay in one kernel pass
(:mod:`repro.kernels.edgedelay`, bit-identical to
:meth:`MessageBus.plan_delays`), reserves one tie-break sequence number per
message and lets the batch ride one :class:`~repro.sim.events.EventSeries`
instead of one delivery event per message.  Each message still arrives at
its own ``(time, seq)`` position; a batch whose one destination can fold
messages that change nothing does so for a whole chunk, and every other
message goes through :meth:`MessageBus._deliver` as a single send would.

**Outboxes.**  While a grid instant of the job plane fires
(:mod:`repro.sim.grid`), the bus holds every message an actor sends
(:meth:`MessageBus.hold`, :meth:`MessageBus.post`): each takes its sender's
slot and its delivery's sequence number at its turn, exactly where
:meth:`send` takes them, and :meth:`MessageBus.release` then draws the
delays of the whole outbox in one kernel pass and schedules it as one
delivery run.  A run with a destination per message offers each arrival
to that destination's ``absorb_message``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import kernels
from repro.kernels.edgedelay import EdgeColumns, arrival_order
from repro.sim.actor import Actor
from repro.sim.events import Event, EventLoop
from repro.sim.grid import PhaseGrid
from repro.sim.rng import SplitRandom

_M64 = (1 << 64) - 1

#: 2**-53: maps the top 53 bits of a 64-bit hash onto [0, 1)
_TO_UNIT = 1.0 / (1 << 53)

#: per-sender delay epsilon quantum; max epsilon = 0x3FFFFF * 2**-42 ~ 1e-6 s.
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


class SenderState:
    """One sender's randomness, slotted: its key, the delay epsilon the
    key determines (kept: deriving it on each send would cost every send
    more than its 24 bytes save) and the index of its next message."""

    __slots__ = ("key", "epsilon", "index")

    def __init__(self, key: int):
        self.key = key
        self.epsilon = ((key & 0x3FFFFF) + 1) * _EPS_QUANTUM
        self.index = 0


class EdgeGroup:
    """The edges of a fixed list of (sender, destination) pairs: many
    senders to one destination (a heartbeat cohort) or one sender to many
    (the master's post-recovery push, one key repeated).

    Built once per pair list by :meth:`MessageBus.edge_group`; holds, under
    the numpy backend, the constant key / epsilon columns the delay kernel
    works on, but no :class:`SenderState`: each firing looks its senders'
    counters up, so a cached group never uses one that
    :meth:`MessageBus.unregister` dropped (keys are functions of names).
    A list may name one sender twice (an agent restarted twice in a step).
    """

    __slots__ = ("senders", "dests", "dest", "columns")

    def __init__(self, senders: List[str], dests: List[str],
                 dest: Optional[str], states: List[SenderState]):
        self.senders = senders
        self.dests = dests
        #: the destination every pair shares, or None
        self.dest = dest
        self.columns = None
        if kernels.np() is not None:
            self.columns = EdgeColumns([state.key for state in states],
                                       [state.epsilon for state in states])


class Messages:
    """A :meth:`MessageBus.send_run` batch of ready-made messages, by pair
    position, for a group without a shared destination (each arrival is
    offered to its own destination's ``absorb_message``)."""

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


class Outbox:
    """Messages sent while the bus holds them (:meth:`MessageBus.hold`),
    each with the sender's slot and sequence number its delivery event would
    have taken, until :meth:`MessageBus.release` sends them as one run."""

    __slots__ = ("senders", "dests", "messages", "states", "indices",
                 "seqs")

    def __init__(self):
        self.senders: List[str] = []
        self.dests: List[str] = []
        self.messages: List[Any] = []
        #: each message's sender state and the counter it took
        self.states: List[SenderState] = []
        self.indices: List[int] = []
        self.seqs: List[int] = []


class _ReservedSeqs:
    """The sequence numbers of a run nothing was dropped from,
    ``first + order[i]``, computed when read: a series reads a few per
    invocation, and a run of 100,000 need not hold an int object each."""

    __slots__ = ("first", "order")

    def __init__(self, first: int, order: Sequence[int]):
        self.first = first
        self.order = order

    def __getitem__(self, index: int) -> int:
        return self.first + self.order[index]


class _DeliveryRun:
    """The messages of one :meth:`MessageBus.send_run`, in arrival order:
    the consumer of their :class:`~repro.sim.events.EventSeries`."""

    __slots__ = ("bus", "senders", "dests", "dest", "batch", "order",
                 "times")

    def __init__(self, bus: "MessageBus", senders: List[str],
                 dests: List[str], dest: Optional[str], batch: Any,
                 order: Sequence[int], times: Sequence[float]):
        self.bus = bus
        # the names, not a group: a one-off group's delay columns need
        # not outlive the send
        self.senders, self.dests, self.dest = senders, dests, dest
        self.batch = batch
        self.order = order
        self.times = times

    def consume(self, start: int, end: int) -> int:
        """Deliver arrivals ``[start, end)``; returns where it stopped.

        No event lies between them, so a shared destination is resolved
        once: a missing or crashed one drops them all, one that can fold
        messages in bulk is offered the chunk.  Without one, each arrival
        is offered to its own destination's ``absorb_message(sender,
        message, arrival)``, in arrival order, until one declines.  The
        first message left is delivered the way :meth:`MessageBus.send`
        delivers, alone.
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
        else:
            stop = self._absorb_each(start, end)
            if stop > start:
                return stop
        position = self.order[start]
        bus._deliver(self.senders[position], self.dests[position],
                     self.batch.message(position))
        return start + 1

    def _absorb_each(self, start: int, end: int) -> int:
        """Fold arrivals ``[start, end)`` one by one into their own
        destinations; returns the index of the first one left.  An
        arrival at a missing or crashed actor is dropped, as ``_deliver``
        drops it.  A destination whose ``deliver`` was replaced on the
        instance folds nothing: whoever intercepts deliveries must see
        every message."""
        bus = self.bus
        actors, aliases = bus._actors, bus._aliases
        order, times = self.order, self.times
        senders, dests = self.senders, self.dests
        messages = self.batch.messages
        index = start
        while index < end:
            position = order[index]
            dest = dests[position]
            actor = actors.get(aliases.get(dest, dest))
            if actor is None or not actor.alive:
                bus.messages_dropped += 1
            else:
                fold = getattr(actor, "absorb_message", None)
                if (fold is None or "deliver" in actor.__dict__
                        or not fold(senders[position], messages[position],
                                    times[index])):
                    break
                bus.messages_delivered += 1
            messages[position] = None
            index += 1
        return index


class MessageBus:
    """Registry of actors plus the delivery machinery."""

    def __init__(self, loop: EventLoop, rng: Optional[SplitRandom] = None,
                 config: Optional[NetworkConfig] = None):
        self.loop = loop
        self.config = config or NetworkConfig()
        self._net_seed = (rng or SplitRandom(0)).child_seed("network")
        self._states: Dict[str, SenderState] = {}
        self._actors: Dict[str, Actor] = {}
        #: machine -> the worker processes filed under it (``host``), by
        #: name in registration order: what ``ps`` on the machine lists
        self._hosted: Dict[str, Dict[str, Actor]] = {}
        self._aliases: Dict[str, str] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        #: the sender cohort opened last on this bus; senders arming in
        #: the same loop step join it (see repro.core.heartbeat)
        self.open_cohort: Any = None
        #: the job plane's shared timer instants (see repro.sim.grid)
        self.grid = PhaseGrid(loop, self)
        #: where ``Actor.send`` puts messages while the bus holds them
        self.outbox: Optional[Outbox] = None

    # --------------------------------------------------------------- #
    # registry
    # --------------------------------------------------------------- #

    def register(self, actor: Actor) -> None:
        self._actors[actor.name] = actor

    def unregister(self, name: str) -> None:
        self._states.pop(name, None)
        actor = self._actors.pop(name, None)
        if actor is not None:
            hosted = self._hosted.get(getattr(actor, "machine", None))
            if hosted is not None:
                hosted.pop(name, None)

    def host(self, actor: Actor, machine: str) -> None:
        """File the registered ``actor`` as a process running on
        ``machine`` until it is unregistered.  A worker is unregistered
        the moment it crashes, so the filed processes of a machine keep
        the order in which the bus registered them."""
        self._hosted.setdefault(machine, {})[actor.name] = actor

    def hosted_on(self, machine: str) -> List[Actor]:
        """The live processes filed under ``machine``, in registration
        order — without walking every actor on the bus."""
        hosted = self._hosted.get(machine)
        if not hosted:
            return []
        return [actor for actor in hosted.values() if actor.alive]

    def set_alias(self, alias: str, target: str) -> None:
        self._aliases[alias] = target

    def resolve(self, name: str) -> str:
        return self._aliases.get(name, name)

    def actor(self, name: str) -> Optional[Actor]:
        return self._actors.get(self.resolve(name))

    # --------------------------------------------------------------- #
    # sender-keyed randomness
    # --------------------------------------------------------------- #

    def _sender(self, sender: str) -> SenderState:
        state = self._states.get(sender)
        if state is None:
            state = self._states[sender] = SenderState(
                _mix64(self._net_seed ^ _mix64(hash_str(sender))))
        return state

    def plan_delays(self, sender: str) -> Optional[List[float]]:
        """Delivery delays for the next message ``sender`` sends, to any
        destination.

        Returns ``None`` when the message is dropped, otherwise one delay
        per delivery (two entries when the transport duplicates).  Consumes
        exactly one slot of the sender's counter; the result is a pure
        function of ``(seed, sender, message_index, config)``.
        """
        state = self._sender(sender)
        epsilon = state.epsilon
        index = state.index
        state.index = index + 1
        base = state.key ^ (index << 3)
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
        out: the sender's slot-2 jitter draw (the splitmix64 finalizer of
        :func:`_mix64`, inline) and the loop's ``call_at`` body.  The drop
        draw is inline too, since a network burst turns it on for every
        send; duplication and reordering take :meth:`_one_delay`.  The
        config is read on every send (bursts change it mid-run), and the
        result — delays, counters, tie-break sequence numbers — is bit for
        bit that of the two calls it stands for.
        """
        self.messages_sent += 1
        state = self._states.get(sender)
        if state is None:
            state = self._sender(sender)
        epsilon = state.epsilon
        index = state.index
        state.index = index + 1
        base = state.key ^ (index << 3)
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
                         [self._sender(sender) for sender in senders])

    def plan_delays_many(self, group: EdgeGroup) -> Tuple[Any, Any]:
        """:meth:`plan_delays` for the next message on every edge of
        ``group`` at once, for a transport that neither duplicates nor
        reorders.  Returns ``(delays, dropped)`` columns — lists on the
        python backend, scratch arrays on numpy; ``dropped`` is ``None``
        when nothing can be — bit-identical to one :meth:`plan_delays` call
        per pair, in pair order, advancing a sender's counter once per pair.
        """
        config = self.config
        if config.duplicate_prob or config.reorder_prob:
            raise ValueError("plan_delays_many does not model duplication "
                             "or reordering; send the messages one by one")
        if group.columns is None:
            plan_one = self.plan_delays
            planned = [plan_one(sender) for sender in group.senders]
            delays = [0.0 if one is None else one[0] for one in planned]
            if not config.drop_prob:
                return delays, None
            return delays, [one is None for one in planned]
        # each message's index is its sender's counter at its turn, so a
        # sender named twice gets two consecutive slots, as two sends would
        indices = []
        states, sender_state = self._states, self._sender
        for sender in group.senders:
            state = states.get(sender) or sender_state(sender)
            indices.append(state.index)
            state.index += 1
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
        delays and arrival order are exactly those of
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
        run = _DeliveryRun(self, group.senders, group.dests, group.dest,
                           batch, order, times)
        self.loop.call_series(times, seqs, run.consume)

    # --------------------------------------------------------------- #
    # outboxes: the messages of one instant, sent as one run
    # --------------------------------------------------------------- #

    def hold(self) -> None:
        """Hold every message actors send from now until :meth:`release`,
        for one delivery run.  Only a transport that neither drops,
        duplicates nor reorders is held: there, which sequence numbers a
        message takes does not depend on its draws."""
        config = self.config
        if not (config.drop_prob or config.duplicate_prob
                or config.reorder_prob):
            self.outbox = Outbox()

    def post(self, outbox: Outbox, sender: str, dest: str,
             message: Any) -> None:
        """:meth:`send` with the delivery held in ``outbox`` instead of
        put on the loop: the counter, the sender's slot and the delivery's
        sequence number are taken here, as ``send`` takes them."""
        self.messages_sent += 1
        state = self._states.get(sender)
        if state is None:
            state = self._sender(sender)
        outbox.states.append(state)
        outbox.indices.append(state.index)
        state.index += 1
        loop = self.loop
        outbox.seqs.append(loop._seq)
        loop._seq += 1
        outbox.senders.append(sender)
        outbox.dests.append(dest)
        outbox.messages.append(message)

    def release(self) -> None:
        """Stop holding, and schedule what the outbox holds as one delivery
        run: every message's delay drawn from the slot it took (one
        kernel pass, bit-identical to ``send``'s inline draw), each
        arriving at ``(now + delay, its sequence number)``."""
        outbox, self.outbox = self.outbox, None
        if outbox is None or not outbox.senders:
            return
        config = self.config
        states, indices = outbox.states, outbox.indices
        if kernels.np() is None:
            delays = [self._one_delay(config, state.key ^ (index << 3),
                                      state.epsilon, 2)
                      for state, index in zip(states, indices)]
        else:
            columns = EdgeColumns([state.key for state in states],
                                  [state.epsilon for state in states])
            delays, _ = columns.delays(indices, config.latency,
                                       config.jitter, 0.0)
        # equal arrivals keep sending order, which is sequence order
        order, times = arrival_order(self.loop.now, delays, None)
        held = outbox.seqs
        run = _DeliveryRun(self, outbox.senders, outbox.dests, None,
                           Messages(outbox.messages), order, times)
        self.loop.call_series(times, [held[position] for position in order],
                              run.consume)


def _draw(base: int, slot: int) -> float:
    """The slot-th uniform [0,1) draw of one message's randomness."""
    return (_mix64(base ^ slot) >> 11) * _TO_UNIT


def hash_str(text: str) -> int:
    """64-bit string hash, stable across interpreters (``hash()`` is salted).

    Not memoised: a sender's name is hashed once, when its state is made
    (a memo of names measured no set-up gain beyond run-to-run noise)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = (acc ^ byte) * 0x100000001B3 & _M64
    return acc
