"""The vector delay pass of a delivery run, and the inline delay of a
single send, against ``plan_delays``.

``MessageBus.plan_delays_many`` must be, bit for bit, one ``plan_delays``
call per sender — delays, drops, and every edge counter advanced by exactly
one — on both kernel backends, for any seed, any message index an edge may
have reached, and the transports a run is used on (loss, zero jitter,
burst-sized jitter).  ``arrival_order`` must be the stable sort both
backends agree on.  ``MessageBus.send``, which draws its delay inline, must
schedule a delivery at ``now + delay`` for every delay ``plan_delays``
returns — on every transport, duplicating and reordering ones included.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.cluster.network import MessageBus, NetworkConfig
from repro.kernels.edgedelay import arrival_order
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

DEST = "fuxi-master"
BACKENDS = [pytest.param(name, marks=pytest.mark.skipif(
    name == "numpy" and not kernels.numpy_available(),
    reason="numpy not installed")) for name in ("python", "numpy")]

configs = st.builds(
    NetworkConfig,
    latency=st.sampled_from((0.001, 0.0, 0.25)),
    jitter=st.sampled_from((0.0, 0.0005, 0.05)),     # none, default, burst
    drop_prob=st.sampled_from((0.0, 0.05, 0.25, 1.0)))
edge_counters = st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=40)


def _bus(seed, config, counters, now=0.0):
    bus = MessageBus(EventLoop(now), SplitRandom(seed), config)
    senders = [f"agent:r{index // 7:02d}m{index:03d}"
               for index in range(len(counters))]
    for sender, counter in zip(senders, counters):
        bus._edge(sender, DEST)[2] = counter
    return bus, senders


def _sends_as_planned(bus, sender, planned) -> bool:
    """``bus.send`` one message: are the deliveries it put on the loop's
    heap, in sequence order, at ``now + delay`` for each of the
    ``planned`` delays (none when ``planned`` is ``None``), to the bit?"""
    loop = bus.loop
    first = loop._seq
    bus.send(sender, DEST, "message")
    arrivals = [when.hex() for seq, when in sorted(
        (seq, when) for when, seq, _ in loop._heap if seq >= first)]
    return arrivals == [(loop.now + delay).hex()
                        for delay in planned or ()]


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32), config=configs, counters=edge_counters,
       rounds=st.integers(1, 3))
def test_vector_delays_equal_plan_delays_bit_for_bit(backend, seed, config,
                                                     counters, rounds):
    with kernels.use(backend):
        scalar, senders = _bus(seed, config, counters)
        vector, _ = _bus(seed, config, counters)
        single, _ = _bus(seed, config, counters)
        group = vector.edge_group(senders, DEST)
        assert (group.columns is not None) == (backend == "numpy")
        for round_index in range(rounds):  # later rounds reuse the scratch
            expected = [scalar.plan_delays(sender, DEST)
                        for sender in senders]
            for sender, plan in zip(senders, expected):
                assert _sends_as_planned(single, sender, plan)
            delays, dropped = vector.plan_delays_many(group)
            delays = [float(delay) for delay in delays]
            gone = ([False] * len(senders) if dropped is None
                    else [bool(flag) for flag in dropped])
            for position, plan in enumerate(expected):
                if plan is None:
                    assert gone[position]
                else:
                    assert not gone[position]
                    assert len(plan) == 1
                    assert delays[position].hex() == plan[0].hex()
            for sender, counter in zip(senders, counters):
                assert (vector._edge(sender, DEST)[2]
                        == scalar._edge(sender, DEST)[2]
                        == single._edge(sender, DEST)[2]
                        == counter + round_index + 1)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), config=configs, counters=edge_counters,
       now=st.sampled_from((0.0, 1.0, 517.0)))
def test_arrival_order_is_the_stable_sort_of_the_survivors(backend, seed,
                                                           config, counters,
                                                           now):
    with kernels.use(backend):
        bus, senders = _bus(seed, config, counters)
        group = bus.edge_group(senders, DEST)
        delays, dropped = bus.plan_delays_many(group)
        assert isinstance(delays, list) == (backend == "python")
        order, times = arrival_order(now, delays, dropped)
        arrivals = [now + float(delay) for delay in delays]
        alive = [position for position in range(len(senders))
                 if dropped is None or not dropped[position]]
        assert order == sorted(alive, key=lambda p: (arrivals[p], p))
        assert [time.hex() for time in times] \
            == [arrivals[position].hex() for position in order]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       config=st.builds(
           NetworkConfig,
           latency=st.sampled_from((0.001, 0.0)),
           jitter=st.sampled_from((0.0, 0.0005, 0.05)),
           drop_prob=st.sampled_from((0.0, 0.05, 1.0)),
           duplicate_prob=st.sampled_from((0.0, 0.1, 1.0)),
           reorder_prob=st.sampled_from((0.0, 0.2, 1.0)),
           reorder_jitter=st.sampled_from((0.01, 0.3))),
       counters=edge_counters, now=st.sampled_from((0.0, 1.0, 517.0)))
def test_single_send_delays_equal_plan_delays_bit_for_bit(seed, config,
                                                          counters, now):
    """Every transport, duplication and reordering included: the delays
    ``send`` schedules, its drop and duplicate counts, and the edge
    counters are those of ``plan_delays``."""
    planned, senders = _bus(seed, config, counters, now)
    single, _ = _bus(seed, config, counters, now)
    dropped = duplicated = 0
    for sender in senders * 2:
        plan = planned.plan_delays(sender, DEST)
        dropped += plan is None
        duplicated += plan is not None and len(plan) > 1
        assert _sends_as_planned(single, sender, plan)
    assert single.messages_dropped == dropped
    assert single.messages_duplicated == duplicated
    # one tie-break sequence number per delivery, none for a drop
    assert single.loop._seq == single.messages_sent - dropped + duplicated
    for sender in senders:
        assert single._edge(sender, DEST) == planned._edge(sender, DEST)


def test_plan_delays_many_refuses_duplication_and_reordering():
    bus, senders = _bus(1, NetworkConfig(duplicate_prob=0.1), [0, 0])
    with pytest.raises(ValueError):
        bus.plan_delays_many(bus.edge_group(senders, DEST))
