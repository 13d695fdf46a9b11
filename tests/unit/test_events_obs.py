"""Event-loop observability & bookkeeping: O(1) pending, heap compaction,
cancel-after-done semantics, per-event hooks with sampling."""

import pytest

from repro.sim.events import _COMPACT_MIN, EventLoop


def test_pending_is_counter_backed():
    loop = EventLoop()
    events = [loop.call_after(float(i), lambda: None) for i in range(10)]
    assert loop.pending() == 10
    for event in events[:4]:
        event.cancel()
    assert loop.pending() == 6
    loop.run()
    assert loop.pending() == 0


def test_cancel_after_done_is_noop():
    loop = EventLoop()
    event = loop.call_after(1.0, lambda: None)
    loop.run()
    assert event.done and not event.cancelled
    event.cancel()  # must not corrupt the live counter
    assert not event.cancelled
    assert loop.pending() == 0


def test_compaction_drops_cancelled_entries():
    loop = EventLoop()
    total = 2 * _COMPACT_MIN
    cancel = _COMPACT_MIN + 10
    events = [loop.call_after(1.0 + i * 0.001, lambda: None)
              for i in range(total)]
    # cancel more than half: at least one compaction must fire, so the
    # heap holds fewer entries than were ever scheduled
    for event in events[:cancel]:
        event.cancel()
    assert len(loop._heap) < total
    assert loop.pending() == total - cancel
    loop.run()
    assert loop.events_executed == total - cancel


def test_small_heaps_are_not_compacted():
    loop = EventLoop()
    events = [loop.call_after(1.0, lambda: None) for i in range(10)]
    for event in events:
        event.cancel()
    # below _COMPACT_MIN the lazy-deletion heap is left alone
    assert len(loop._heap) == 10
    assert loop.pending() == 0
    loop.run()
    assert loop.events_executed == 0


def test_execution_correct_across_compaction():
    loop = EventLoop()
    seen = []
    keepers = []
    for i in range(3 * _COMPACT_MIN):
        event = loop.call_after(1.0 + i, seen.append, i)
        if i % 3 == 0:
            keepers.append(i)
        else:
            event.cancel()
    loop.run()
    assert seen == keepers


def test_hook_sees_every_event_by_default():
    loop = EventLoop()
    sampled = []
    loop.add_hook(lambda lp, event, wall: sampled.append(event.time))
    for i in range(5):
        loop.call_after(float(i), lambda: None)
    loop.run()
    assert sampled == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_hook_sampling_every_nth():
    loop = EventLoop()
    sampled = []
    loop.add_hook(lambda lp, event, wall: sampled.append(loop.events_executed),
                  sample_every=3)
    for i in range(10):
        loop.call_after(float(i), lambda: None)
    loop.run()
    assert sampled == [3, 6, 9]


def test_hook_wall_time_is_nonnegative():
    loop = EventLoop()
    walls = []
    loop.add_hook(lambda lp, event, wall: walls.append(wall))
    loop.call_after(1.0, lambda: sum(range(1000)))
    loop.run()
    assert len(walls) == 1
    assert walls[0] >= 0.0


def test_remove_hook_restores_fast_path():
    loop = EventLoop()
    sampled = []
    handle = loop.add_hook(lambda lp, event, wall: sampled.append(1))
    loop.call_after(1.0, lambda: None)
    loop.run()
    loop.remove_hook(handle)
    loop.call_after(1.0, lambda: None)
    loop.run()
    assert sampled == [1]
    assert not loop._hooks


def test_set_hook_rejects_bad_interval():
    """Setting the loop-metrics hook checks its interval and installs nothing."""
    from repro.obs.histogram import MetricsRegistry
    from repro.obs.hooks import attach_loop_metrics

    loop = EventLoop()
    with pytest.raises(ValueError):
        attach_loop_metrics(loop, MetricsRegistry(), sample_every=0)
    assert not loop._hooks


def test_add_hook_supports_multiple_observers():
    loop = EventLoop()
    every, thirds = [], []
    loop.add_hook(lambda lp, event, wall: every.append(lp.events_executed))
    loop.add_hook(lambda lp, event, wall: thirds.append(lp.events_executed),
                  sample_every=3)
    for i in range(6):
        loop.call_after(float(i), lambda: None)
    loop.run()
    assert every == [1, 2, 3, 4, 5, 6]
    assert thirds == [3, 6]


def test_remove_hook_detaches_only_that_handle():
    loop = EventLoop()
    kept, removed = [], []
    loop.add_hook(lambda lp, event, wall: kept.append(1))
    handle = loop.add_hook(lambda lp, event, wall: removed.append(1))
    loop.call_after(1.0, lambda: None)
    loop.run()
    loop.remove_hook(handle)
    loop.remove_hook(handle)  # double-remove is a no-op
    loop.call_after(1.0, lambda: None)
    loop.run()
    assert kept == [1, 1]
    assert removed == [1]


def test_add_hook_rejects_bad_interval():
    with pytest.raises(ValueError):
        EventLoop().add_hook(lambda lp, e, w: None, sample_every=0)


def test_attach_loop_metrics_records_samples():
    from repro.obs.histogram import MetricsRegistry
    from repro.obs.hooks import attach_loop_metrics, detach_loop_metrics

    loop = EventLoop()
    registry = MetricsRegistry()
    handle = attach_loop_metrics(loop, registry, sample_every=2)
    for i in range(6):
        loop.call_after(float(i), lambda: None)
    loop.run()
    assert registry.counter("sim.events_sampled") == 3
    assert registry.histogram("sim.callback_ms").count == 3
    assert len(registry.series("sim.queue_depth")) == 3
    detach_loop_metrics(loop, handle)
    loop.call_after(10.0, lambda: None)
    loop.run()
    assert registry.counter("sim.events_sampled") == 3


def test_loop_metrics_keep_the_other_hooks():
    """Attaching and detaching loop metrics leaves a flight recorder on."""
    from repro.api import ClusterBuilder
    from repro.obs.histogram import MetricsRegistry
    from repro.obs.hooks import attach_loop_metrics, detach_loop_metrics

    cluster = ClusterBuilder(racks=1, machines_per_rack=3, seed=3).build()
    recorder = cluster.enable_flight_recorder()
    registry = MetricsRegistry()
    handle = attach_loop_metrics(cluster.loop, registry, sample_every=1)
    recorded = recorder.recorded
    cluster.run_for(2.0)
    assert recorder.recorded > recorded
    sampled = registry.counter("sim.events_sampled")
    assert sampled > 0
    detach_loop_metrics(cluster.loop, handle)
    recorded = recorder.recorded
    cluster.run_for(2.0)
    assert recorder.recorded > recorded
    assert registry.counter("sim.events_sampled") == sampled
