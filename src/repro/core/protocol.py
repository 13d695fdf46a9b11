"""Incremental communication protocol (paper §3.1, "Incremental Communication").

Peers exchange *deltas*, not full state, so the protocol layer must deliver
them **in order** and **exactly once in effect** even when the transport
duplicates or reorders messages.  Each directed stream carries:

- monotonically increasing sequence numbers assigned by the sender;
- receiver-side duplicate suppression (seq <= last applied → drop);
- receiver-side reorder buffering (gap → hold until filled);
- periodic **full-state sync** messages that carry the sender's complete
  state and resynchronize the stream ("as a safety measurement, application
  masters exchange with FuxiMaster the full state of resources periodically
  to fix any possible inconsistency").

The layer is transport-agnostic: senders emit envelopes, receivers consume
them; the actors move envelopes over the simulated message bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True, slots=True)
class DeltaEnvelope:
    """One in-order delta on a stream."""

    stream: str
    epoch: int
    seq: int
    payload: Any


@dataclass(frozen=True, slots=True)
class FullSyncEnvelope:
    """Complete sender state; resynchronizes the stream at (epoch, seq)."""

    stream: str
    epoch: int
    seq: int
    state: Any


class StreamSender:
    """Sender half of one directed stream.

    The *epoch* increments every time the sender restarts (failover); a
    receiver seeing a higher epoch discards its old stream position and
    applies the new incarnation from its full sync or its first delta.
    """

    # a master holds one per agent
    __slots__ = ("stream", "epoch", "ordinal", "sent_tick", "_seq",
                 "_unacked", "_full_seq")

    def __init__(self, stream: str, epoch: int = 0, ordinal: int = 0):
        self.stream = stream
        self.epoch = epoch
        #: creation rank within the owning hub (its ``_senders`` order)
        self.ordinal = ordinal
        #: the owning hub's retransmit tick when the oldest send still
        #: unacknowledged went out, or when the peer last acked progress
        self.sent_tick = 0
        self._seq = 0
        self._unacked: Dict[int, DeltaEnvelope] = {}
        #: seq of the full sync not yet acknowledged, -1 when none is
        self._full_seq = -1

    def next_delta(self, payload: Any) -> DeltaEnvelope:
        self._seq += 1
        envelope = DeltaEnvelope(self.stream, self.epoch, self._seq, payload)
        self._unacked[self._seq] = envelope
        return envelope

    def full_sync(self, state: Any) -> FullSyncEnvelope:
        """Emit the sender's complete state; clears the retransmit buffer."""
        self._unacked.clear()
        self._full_seq = self._seq
        return FullSyncEnvelope(self.stream, self.epoch, self._seq, state)

    def acknowledge(self, seq: int) -> bool:
        """Peer confirmed everything up to ``seq``; drop retransmit copies.
        Returns whether this acknowledged anything not acknowledged yet."""
        progress = 0 <= self._full_seq <= seq
        if progress:
            self._full_seq = -1
        acked = [s for s in self._unacked if s <= seq]
        for old in acked:
            del self._unacked[old]
        return progress or bool(acked)

    def unacknowledged(self) -> bool:
        """A delta or a full sync of this stream awaits its ack."""
        return bool(self._unacked) or self._full_seq >= 0

    def pending_retransmit(self) -> List[DeltaEnvelope]:
        """Unacknowledged deltas, oldest first (resent on a timer)."""
        return [self._unacked[s] for s in sorted(self._unacked)]

    def restart(self) -> None:
        """New incarnation after a crash: bump epoch, reset sequence."""
        self.epoch += 1
        self._seq = 0
        self._unacked.clear()
        self._full_seq = -1


class StreamReceiver:
    """Receiver half: exactly-once, in-order application of deltas.

    ``apply_delta(payload)`` is called for each delta exactly once, in seq
    order.  ``apply_full(state)`` replaces receiver state wholesale.  Both are
    supplied by the component embedding the receiver.
    """

    def __init__(self, stream: str,
                 apply_delta: Callable[[Any], None],
                 apply_full: Callable[[Any], None],
                 max_buffer: int = 10_000):
        self.stream = stream
        self.epoch = -1
        self.last_seq = 0
        self.synced = False
        self._apply_delta = apply_delta
        self._apply_full = apply_full
        self._buffer: Dict[int, DeltaEnvelope] = {}
        self._max_buffer = max_buffer
        self.duplicates_dropped = 0
        self.reordered_buffered = 0

    def receive(self, envelope) -> None:
        """Feed any envelope from the transport; ordering/dup handled here."""
        if isinstance(envelope, FullSyncEnvelope):
            self._receive_full(envelope)
        elif isinstance(envelope, DeltaEnvelope):
            self._receive_delta(envelope)
        else:
            raise TypeError(f"not a protocol envelope: {envelope!r}")

    def _receive_full(self, envelope: FullSyncEnvelope) -> None:
        if envelope.epoch < self.epoch:
            return  # stale incarnation
        self.epoch = envelope.epoch
        self.last_seq = envelope.seq
        self.synced = True
        self._buffer = {s: e for s, e in self._buffer.items()
                        if e.epoch == self.epoch and s > self.last_seq}
        self._apply_full(envelope.state)
        self._drain()

    def _receive_delta(self, envelope: DeltaEnvelope) -> None:
        if envelope.epoch < self.epoch:
            return  # stale incarnation
        if envelope.epoch > self.epoch:
            # New sender incarnation: wait for its full sync; buffer deltas.
            self._buffer = {}
            self.epoch = envelope.epoch
            self.last_seq = 0
            self.synced = False
        if not self.synced and envelope.seq != 1:
            # Cannot apply mid-stream before the initial state arrives.
            self._buffer_envelope(envelope)
            return
        if envelope.seq <= self.last_seq:
            self.duplicates_dropped += 1
            return
        if envelope.seq > self.last_seq + 1:
            self._buffer_envelope(envelope)
            return
        self.synced = True
        self.last_seq = envelope.seq
        self._apply_delta(envelope.payload)
        self._drain()

    def _buffer_envelope(self, envelope: DeltaEnvelope) -> None:
        if len(self._buffer) >= self._max_buffer:
            raise OverflowError(
                f"stream {self.stream!r} reorder buffer overflow "
                f"(last_seq={self.last_seq})"
            )
        if envelope.seq not in self._buffer:
            self.reordered_buffered += 1
            self._buffer[envelope.seq] = envelope

    def _drain(self) -> None:
        while self.last_seq + 1 in self._buffer:
            envelope = self._buffer.pop(self.last_seq + 1)
            self.last_seq = envelope.seq
            self.synced = True
            self._apply_delta(envelope.payload)


class StreamHub:
    """Per-actor bundle of stream senders/receivers with retransmission.

    An actor owns one hub.  Outgoing streams are keyed by (destination,
    kind); incoming streams by their globally unique stream name
    ``"<sender>:<kind>"``.  The hub wraps envelopes in
    :class:`repro.core.messages.Envelope` bus messages, produces
    acknowledgements, and retransmits unacknowledged deltas on a timer the
    owning actor arms.
    """

    # every actor holds one, most of them (agents) idle
    __slots__ = ("actor", "stats", "epoch", "_senders", "_dest_of",
                 "_receivers", "_full_state_of", "_sender_keys_of",
                 "_receiver_streams_of", "_unacked_streams", "_created",
                 "_on_first_sender", "_ticks")

    def __init__(self, actor: Any, stats: Optional["ProtocolStats"] = None,
                 on_first_sender: Optional[Callable[[], None]] = None,
                 epoch: int = 0):
        # ``actor`` needs .name, .send(dest, message), .set_periodic_timer().
        self.actor = actor
        self.stats = stats or ProtocolStats()
        #: the epoch every outgoing stream of this hub starts at: a master
        #: gives each primary term a hub whose epoch is above any earlier
        #: term's, so its first delta is never taken for a duplicate of a
        #: stream position an agent kept from an earlier term
        self.epoch = epoch
        #: retransmit ticks so far (see :meth:`in_flight`)
        self._ticks = 0
        self._senders: Dict[tuple, StreamSender] = {}
        self._dest_of: Dict[str, str] = {}
        self._receivers: Dict[str, StreamReceiver] = {}
        self._full_state_of: Dict[tuple, Callable[[], Any]] = {}
        # per-peer indexes so drop_peer is O(peer's streams), not a scan
        # of every stream the hub has ever opened (app exits at 5k scale
        # were paying O(agents) per exit)
        self._sender_keys_of: Dict[str, List[tuple]] = {}
        self._receiver_streams_of: Dict[str, List[str]] = {}
        # ``_unacked_streams``: ordinal -> key of the streams that may hold
        # unacknowledged deltas (all enter by send_delta).  Made with the
        # first outgoing stream: most hubs (agents') never have one.
        self._created = 0
        # Fired when the hub goes from zero to one outgoing stream; lets
        # receive-only actors (FuxiAgents) arm their retransmit timer lazily
        # instead of ticking it forever with nothing to resend.
        self._on_first_sender = on_first_sender

    # ------------------------- sending ---------------------------- #

    def has_senders(self) -> bool:
        return bool(self._senders)

    def sender(self, dest: str, kind: str,
               full_state: Optional[Callable[[], Any]] = None) -> StreamSender:
        key = (dest, kind)
        sender = self._senders.get(key)
        if sender is None:
            first = not self._senders
            if first:
                self._unacked_streams = {}
            stream = f"{self.actor.name}>{dest}:{kind}"
            sender = self._senders[key] = StreamSender(
                stream, self.epoch, self._created)
            self._created += 1
            self._dest_of[stream] = dest
            self._sender_keys_of.setdefault(dest, []).append(key)
            if full_state is not None:
                self._full_state_of[key] = full_state
            if first and self._on_first_sender is not None:
                self._on_first_sender()
        elif full_state is not None:
            self._full_state_of[key] = full_state
        return sender

    def send_delta(self, dest: str, kind: str, payload: Any,
                   items: int = 1) -> None:
        from repro.core.messages import Envelope
        sender = self.sender(dest, kind)
        if not sender.unacknowledged():
            sender.sent_tick = self._ticks
        envelope = sender.next_delta(payload)
        self._unacked_streams[sender.ordinal] = (dest, kind)
        self.stats.record_delta(items)
        self.actor.send(dest, Envelope(envelope))

    def send_full(self, dest: str, kind: str, state: Any, items: int = 0) -> None:
        self.actor.send(dest, self.full_envelope(dest, kind, state, items))

    def full_envelope(self, dest: str, kind: str, state: Any,
                      items: int = 0) -> Any:
        """The message :meth:`send_full` sends, for a caller that sends it
        as part of a run: the stream's retransmit buffer is cleared and
        the sync counted here."""
        from repro.core.messages import Envelope
        sender = self.sender(dest, kind)
        envelope = sender.full_sync(state)
        # it supersedes every earlier send: the oldest outstanding now
        sender.sent_tick = self._ticks
        self.stats.record_full(items)
        return Envelope(envelope)

    def in_flight(self, dest: str, kind: str) -> bool:
        """True while a delta or full sync sent on the stream awaits its
        ack, for at most two retransmit ticks from the oldest such send
        (or from the peer's latest acked progress, if later): a peer's
        view taken before it lands may still differ.  Past that the stream
        counts as stuck however many deltas follow (a full sync lost in
        transit leaves the peer a gap no retransmitted delta fills, and
        every later delta waits behind it), so a differing view is
        drift."""
        sender = self._senders.get((dest, kind))
        return (sender is not None and sender.unacknowledged()
                and self._ticks - sender.sent_tick < 2)

    def restart_all_senders(self) -> None:
        """New incarnation: every outgoing stream starts a fresh epoch."""
        for sender in self._senders.values():
            sender.restart()

    def drop_peer(self, dest: str) -> None:
        """Forget all streams to/from a peer (it was declared dead)."""
        for key in self._sender_keys_of.pop(dest, ()):
            sender = self._senders.pop(key, None)
            if sender is None:
                continue
            self._dest_of.pop(sender.stream, None)
            self._full_state_of.pop(key, None)
            self._unacked_streams.pop(sender.ordinal, None)
        for stream in self._receiver_streams_of.pop(dest, ()):
            self._receivers.pop(stream, None)

    def retransmit_pending(self, max_deltas: int = 32) -> None:
        """Resend unacknowledged traffic (call from a periodic timer).

        If a stream has accumulated too many unacknowledged deltas the hub
        falls back to a full sync, which is both the safety measure of §3.1
        and cheaper than replaying a long tail.  Only the streams that took
        a delta since the last call are visited, in ``_senders`` order (a
        master holds one stream per agent, nearly all acknowledged).
        """
        from repro.core.messages import Envelope
        self._ticks += 1
        if not self._senders:
            return
        unacked = self._unacked_streams
        for ordinal in sorted(unacked):
            key = unacked[ordinal]
            sender = self._senders[key]
            pending = sender.pending_retransmit()
            if not pending:
                del unacked[ordinal]
                continue
            dest = key[0]
            full_state = self._full_state_of.get(key)
            if len(pending) > max_deltas and full_state is not None:
                self.send_full(dest, key[1], full_state())
                continue
            for envelope in pending[:max_deltas]:
                self.actor.send(dest, Envelope(envelope))

    # ------------------------- receiving --------------------------- #

    def receiver_for(self, peer: str, kind: str,
                     apply_delta: Callable[[Any], None],
                     apply_full: Callable[[Any], None]) -> StreamReceiver:
        # Registration happens in :meth:`on_envelope` under the envelope's
        # own stream name (the sender may have addressed us through an
        # alias, so only the envelope knows the authoritative name).
        return StreamReceiver(f"{peer}>?:{kind}", apply_delta, apply_full)

    def reset_receivers(self) -> None:
        """Forget receive positions (used when the owning actor restarts)."""
        self._receivers.clear()
        self._receiver_streams_of.clear()

    def on_envelope(self, bus_sender: str, inner: Any,
                    factory: Optional[Callable[[str, str], Optional[StreamReceiver]]] = None,
                    ) -> bool:
        """Route an incoming envelope; returns True if a receiver consumed it.

        ``factory(peer, kind)`` may lazily create a receiver for streams the
        actor has not seen yet (e.g. a new application's request stream).
        """
        from repro.core.messages import Ack
        stream = inner.stream
        receiver = self._receivers.get(stream)
        if receiver is None and factory is not None:
            head, _, kind = stream.rpartition(":")
            peer = head.partition(">")[0]
            receiver = factory(peer, kind)
            if receiver is not None:
                self._receivers[stream] = receiver
                self._receiver_streams_of.setdefault(peer, []).append(stream)
        if receiver is None:
            return False
        receiver.receive(inner)
        self.actor.send(bus_sender, Ack(stream, receiver.epoch, receiver.last_seq))
        return True

    def on_ack(self, ack: Any) -> None:
        stream = ack.stream
        dest = self._dest_of.get(stream)
        if dest is None:
            return
        _, _, kind = stream.rpartition(":")
        sender = self._senders.get((dest, kind))
        if sender is not None and sender.epoch == ack.epoch:
            if sender.acknowledge(ack.seq):
                sender.sent_tick = self._ticks
            if not sender._unacked:
                self._unacked_streams.pop(sender.ordinal, None)


@dataclass
class ProtocolStats:
    """Aggregate counters, used by the protocol-ablation benchmark."""

    deltas_sent: int = 0
    full_syncs_sent: int = 0
    payload_items_sent: int = 0

    def record_delta(self, items: int = 1) -> None:
        self.deltas_sent += 1
        self.payload_items_sent += items

    def record_full(self, items: int) -> None:
        self.full_syncs_sent += 1
        self.payload_items_sent += items
