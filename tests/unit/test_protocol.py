"""Unit + property tests for the incremental protocol layer (paper §3.1)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import Ack
from repro.core.protocol import (DeltaEnvelope, FullSyncEnvelope,
                                 StreamHub, StreamReceiver, StreamSender)


class Collector:
    def __init__(self):
        self.deltas = []
        self.fulls = []

    def receiver(self, stream="s"):
        return StreamReceiver(stream, self.deltas.append, self.fulls.append)


def test_in_order_delivery_applies_all():
    sender = StreamSender("s")
    collector = Collector()
    receiver = collector.receiver()
    for i in range(5):
        receiver.receive(sender.next_delta(i))
    assert collector.deltas == [0, 1, 2, 3, 4]


def test_duplicates_dropped():
    sender = StreamSender("s")
    collector = Collector()
    receiver = collector.receiver()
    envelope = sender.next_delta("x")
    receiver.receive(envelope)
    receiver.receive(envelope)
    receiver.receive(envelope)
    assert collector.deltas == ["x"]
    assert receiver.duplicates_dropped == 2


def test_reordered_deltas_buffered_and_applied_in_order():
    sender = StreamSender("s")
    collector = Collector()
    receiver = collector.receiver()
    e1, e2, e3 = (sender.next_delta(i) for i in range(3))
    receiver.receive(e1)
    receiver.receive(e3)
    assert collector.deltas == [0]
    receiver.receive(e2)
    assert collector.deltas == [0, 1, 2]
    assert receiver.reordered_buffered == 1


def test_full_sync_resets_position():
    sender = StreamSender("s")
    collector = Collector()
    receiver = collector.receiver()
    receiver.receive(sender.next_delta("a"))
    receiver.receive(sender.full_sync({"state": 1}))
    assert collector.fulls == [{"state": 1}]
    receiver.receive(sender.next_delta("b"))
    assert collector.deltas == ["a", "b"]


def test_delta_after_missed_traffic_waits_for_full_sync():
    sender = StreamSender("s")
    collector = Collector()
    receiver = collector.receiver()
    sender.next_delta("lost-1")
    sender.next_delta("lost-2")
    late = sender.next_delta("late")
    receiver.receive(late)            # seq 3 with nothing before: buffer
    assert collector.deltas == []
    receiver.receive(sender.full_sync("everything"))
    assert collector.fulls == ["everything"]
    receiver.receive(sender.next_delta("next"))
    assert collector.deltas == ["next"]


def test_new_epoch_discards_old_position():
    sender = StreamSender("s")
    collector = Collector()
    receiver = collector.receiver()
    for i in range(3):
        receiver.receive(sender.next_delta(i))
    sender.restart()
    assert sender.epoch == 1
    # a delta from the new incarnation before its full sync: buffered
    receiver.receive(sender.next_delta("post-restart"))
    assert collector.deltas == [0, 1, 2, "post-restart"]  # seq 1 applies


def test_stale_epoch_traffic_ignored():
    old_sender = StreamSender("s", epoch=0)
    new_sender = StreamSender("s", epoch=1)
    collector = Collector()
    receiver = collector.receiver()
    receiver.receive(new_sender.full_sync("new"))
    receiver.receive(old_sender.next_delta("zombie"))
    receiver.receive(FullSyncEnvelope("s", 0, 5, "zombie-full"))
    assert collector.deltas == []
    assert collector.fulls == ["new"]


def test_acknowledge_clears_retransmit_buffer():
    sender = StreamSender("s")
    for i in range(4):
        sender.next_delta(i)
    assert len(sender.pending_retransmit()) == 4
    sender.acknowledge(2)
    assert [e.seq for e in sender.pending_retransmit()] == [3, 4]
    sender.acknowledge(4)
    assert sender.pending_retransmit() == []


def test_full_sync_clears_retransmit_buffer():
    sender = StreamSender("s")
    sender.next_delta("a")
    sender.full_sync("state")
    assert sender.pending_retransmit() == []


class Outbox:
    """The actor side a :class:`StreamHub` needs: a name and a send."""

    name = "a"

    def __init__(self):
        self.sent = []

    def send(self, dest, message):
        self.sent.append((dest, message))


def test_in_flight_counts_from_the_oldest_unacknowledged_send():
    """Later deltas do not keep a stuck stream in flight; an ack that
    moves the peer on does, while anything is left outstanding."""
    hub = StreamHub(Outbox())
    hub.send_delta("b", "k", "d1")
    for _ in range(2):
        hub.send_delta("b", "k", "d")
        assert hub.in_flight("b", "k")
        hub.retransmit_pending()
    assert not hub.in_flight("b", "k")        # two ticks, no progress
    hub.on_ack(Ack("a>b:k", 0, 0))            # no progress either
    assert not hub.in_flight("b", "k")
    hub.on_ack(Ack("a>b:k", 0, 1))
    assert hub.in_flight("b", "k")            # d2 and d3 outstanding
    hub.on_ack(Ack("a>b:k", 0, 3))
    assert not hub.in_flight("b", "k")        # nothing outstanding


def test_unacknowledged_full_sync_is_in_flight_until_acked_past_it():
    hub = StreamHub(Outbox())
    hub.send_delta("b", "k", "d1")
    hub.on_ack(Ack("a>b:k", 0, 1))
    hub.send_delta("b", "k", "d2")
    hub.send_full("b", "k", "state")          # supersedes d2, at seq 2
    hub.on_ack(Ack("a>b:k", 0, 1))            # the peer is still behind it
    assert hub.in_flight("b", "k")
    hub.on_ack(Ack("a>b:k", 0, 2))
    assert not hub.in_flight("b", "k")


def test_buffer_overflow_guard():
    collector = Collector()
    receiver = StreamReceiver("s", collector.deltas.append,
                              collector.fulls.append, max_buffer=3)
    sender = StreamSender("s")
    sender.next_delta(0)  # lost
    with pytest.raises(OverflowError):
        for i in range(10):
            receiver.receive(sender.next_delta(i))


def test_non_envelope_rejected():
    collector = Collector()
    with pytest.raises(TypeError):
        collector.receiver().receive("garbage")


# --------------------------- properties ----------------------------- #

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=30),
       st.randoms(use_true_random=False))
def test_any_delivery_schedule_applies_exactly_once_in_order(payloads, rng):
    """Duplicate + shuffle the transmission arbitrarily; the receiver must
    apply every delta exactly once, in order (§3.1 idempotency)."""
    sender = StreamSender("s")
    envelopes = [sender.next_delta(p) for p in payloads]
    # duplicate some, shuffle all
    wire = envelopes + [rng.choice(envelopes)
                        for _ in range(len(envelopes) // 2)]
    rng.shuffle(wire)
    collector = Collector()
    receiver = collector.receiver()
    for envelope in wire:
        receiver.receive(envelope)
    assert collector.deltas == payloads


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=20),
       st.integers(min_value=0, max_value=19),
       st.randoms(use_true_random=False))
def test_full_sync_recovers_any_loss(payloads, lose_prefix, rng):
    """Drop an arbitrary prefix of deltas; a full sync must resynchronize."""
    sender = StreamSender("s")
    envelopes = [sender.next_delta(p) for p in payloads]
    delivered = envelopes[min(lose_prefix, len(envelopes)):]
    rng.shuffle(delivered)
    collector = Collector()
    receiver = collector.receiver()
    for envelope in delivered:
        receiver.receive(envelope)
    receiver.receive(sender.full_sync(tuple(payloads)))
    assert collector.fulls == [tuple(payloads)]
    # stream continues cleanly after the sync
    receiver.receive(sender.next_delta("tail"))
    assert collector.deltas[-1] == "tail" if collector.deltas else True
    assert receiver.last_seq == len(payloads) + 1
