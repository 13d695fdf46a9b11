"""``StreamHub.retransmit_pending`` visits only streams that took a delta
since it last found them acknowledged; the full scan it replaced visited
every sender.  Hypothesis drives two hubs through the same random send /
ack / full-sync / restart / ``drop_peer`` / (re)open sequence, one
retransmitting through the hub and one through the full scan, and requires
the same envelopes to the same peers in the same order — full-sync
fall-backs included — at every retransmit.
"""

from hypothesis import given, settings, strategies as st

from repro.core import messages as msg
from repro.core.messages import Envelope
from repro.core.protocol import StreamHub

PEERS = ("a", "b", "c", "d")
KINDS = ("alloc", "grant")


def full_scan_retransmit(hub: StreamHub, max_deltas: int = 32) -> None:
    """The retransmit body before the unacked index, verbatim but for
    ``self`` -> ``hub`` (and the import hoisted)."""
    for key, sender in list(hub._senders.items()):
        pending = sender.pending_retransmit()
        if not pending:
            continue
        dest = key[0]
        full_state = hub._full_state_of.get(key)
        if len(pending) > max_deltas and full_state is not None:
            hub.send_full(dest, key[1], full_state())
            continue
        for envelope in pending[:max_deltas]:
            hub.actor.send(dest, Envelope(envelope))


class Recorder:
    """The hub's actor: records what it is asked to send."""

    name = "fuxi-master-0"

    def __init__(self):
        self.sent = []

    def send(self, dest, message):
        self.sent.append((dest, message))


stream = st.tuples(st.sampled_from(PEERS), st.sampled_from(KINDS))
operations = st.lists(st.one_of(
    st.tuples(st.just("open"), stream, st.booleans()),
    st.tuples(st.just("delta"), stream),
    st.tuples(st.just("delta"), stream),
    st.tuples(st.just("ack"), stream, st.integers(0, 6)),
    st.tuples(st.just("full"), stream),
    st.tuples(st.just("restart")),
    st.tuples(st.just("drop"), st.sampled_from(PEERS)),
    st.tuples(st.just("retransmit"), st.integers(1, 4)),
), max_size=80)


def apply(hub: StreamHub, op, retransmit) -> None:
    kind = op[0]
    if kind == "open":
        (dest, stream_kind), with_state = op[1], op[2]
        hub.sender(dest, stream_kind,
                   full_state=(lambda d=dest: {"books": d})
                   if with_state else None)
    elif kind == "delta":
        dest, stream_kind = op[1]
        hub.send_delta(dest, stream_kind, f"delta-{len(hub.actor.sent)}")
    elif kind == "ack":
        (dest, stream_kind), behind = op[1], op[2]
        sender = hub._senders.get((dest, stream_kind))
        if sender is not None:
            hub.on_ack(msg.Ack(sender.stream, sender.epoch,
                               max(0, sender._seq - behind)))
    elif kind == "full":
        dest, stream_kind = op[1]
        hub.send_full(dest, stream_kind, {"full": dest})
    elif kind == "restart":
        hub.restart_all_senders()
    elif kind == "drop":
        hub.drop_peer(op[1])
    else:
        retransmit(hub, op[1])


@settings(max_examples=300, deadline=None)
@given(operations)
def test_retransmit_matches_the_full_scan(ops):
    indexed, scanned = StreamHub(Recorder()), StreamHub(Recorder())
    for op in ops + [("retransmit", 2), ("retransmit", 32)]:
        apply(indexed, op,
              lambda hub, limit: hub.retransmit_pending(max_deltas=limit))
        apply(scanned, op, full_scan_retransmit)
        assert indexed.actor.sent == scanned.actor.sent, op
    assert (indexed.stats.full_syncs_sent, indexed.stats.deltas_sent) \
        == (scanned.stats.full_syncs_sent, scanned.stats.deltas_sent)


def test_an_acknowledged_stream_is_not_visited_again():
    """What the index saves: one visit after the ack, then none."""
    hub = StreamHub(Recorder())
    for peer in PEERS:
        hub.send_delta(peer, "alloc", "x")
    for peer in PEERS[1:]:
        sender = hub.sender(peer, "alloc")
        hub.on_ack(msg.Ack(sender.stream, sender.epoch, sender._seq))
    hub.retransmit_pending()
    assert list(hub._unacked_streams.values()) == [("a", "alloc")]
    assert [dest for dest, _ in hub.actor.sent[len(PEERS):]] == ["a"]
