"""The vector delay pass of a delivery run against ``plan_delays``.

``MessageBus.plan_delays_many`` must be, bit for bit, one ``plan_delays``
call per sender — delays, drops, and every edge counter advanced by exactly
one — on both kernel backends, for any seed, any message index an edge may
have reached, and the transports a run is used on (loss, zero jitter,
burst-sized jitter).  ``arrival_order`` must be the stable sort both
backends agree on.
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


def _bus(seed, config, counters):
    bus = MessageBus(EventLoop(), SplitRandom(seed), config)
    senders = [f"agent:r{index // 7:02d}m{index:03d}"
               for index in range(len(counters))]
    for sender, counter in zip(senders, counters):
        bus._edge(sender, DEST)[2] = counter
    return bus, senders


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32), config=configs, counters=edge_counters,
       rounds=st.integers(1, 3))
def test_vector_delays_equal_plan_delays_bit_for_bit(backend, seed, config,
                                                     counters, rounds):
    with kernels.use(backend):
        scalar, senders = _bus(seed, config, counters)
        vector, _ = _bus(seed, config, counters)
        group = vector.edge_group(senders, DEST)
        assert (group.columns is not None) == (backend == "numpy")
        for round_index in range(rounds):  # later rounds reuse the scratch
            expected = [scalar.plan_delays(sender, DEST)
                        for sender in senders]
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


def test_plan_delays_many_refuses_duplication_and_reordering():
    bus, senders = _bus(1, NetworkConfig(duplicate_prob=0.1), [0, 0])
    with pytest.raises(ValueError):
        bus.plan_delays_many(bus.edge_group(senders, DEST))
