"""Unit tests for the discrete-event loop."""

import weakref

import pytest

from repro.sim.events import _COMPACT_MIN, EventLoop, SimulationError


def test_clock_starts_at_zero():
    assert EventLoop().now == 0.0


def test_clock_custom_start():
    assert EventLoop(start_time=5.0).now == 5.0


def test_call_after_executes_in_time_order():
    loop = EventLoop()
    seen = []
    loop.call_after(2.0, seen.append, "b")
    loop.call_after(1.0, seen.append, "a")
    loop.call_after(3.0, seen.append, "c")
    loop.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    loop = EventLoop()
    seen = []
    for tag in ("first", "second", "third"):
        loop.call_at(1.0, seen.append, tag)
    loop.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    loop = EventLoop()
    times = []
    loop.call_after(1.5, lambda: times.append(loop.now))
    loop.run()
    assert times == [1.5]


def test_cannot_schedule_in_the_past():
    loop = EventLoop()
    loop.call_after(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        EventLoop().call_after(-1.0, lambda: None)


def test_cancel_skips_callback():
    loop = EventLoop()
    seen = []
    event = loop.call_after(1.0, seen.append, "x")
    event.cancel()
    loop.run()
    assert seen == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.call_after(1.0, lambda: None)
    event.cancel()
    event.cancel()
    loop.run()


def test_cancel_releases_callback_and_args():
    """A cancelled entry stays on the heap until its time comes; what it
    would have called must not live that long."""

    class Owner:
        def tick(self, payload):
            pass

    loop = EventLoop()
    owner, payload = Owner(), Owner()
    event = loop.call_after(30.0, owner.tick, payload)
    owner_ref, payload_ref = weakref.ref(owner), weakref.ref(payload)
    del owner, payload
    assert owner_ref() is not None and payload_ref() is not None
    event.cancel()
    assert len(loop._heap) == 1   # still queued, not yet compacted away
    assert owner_ref() is None and payload_ref() is None
    loop.run()
    assert loop.now == 0.0


def test_run_until_stops_at_boundary():
    loop = EventLoop()
    seen = []
    loop.call_after(1.0, seen.append, 1)
    loop.call_after(5.0, seen.append, 5)
    loop.run_until(3.0)
    assert seen == [1]
    assert loop.now == 3.0
    loop.run_until(6.0)
    assert seen == [1, 5]


def test_run_until_includes_boundary_events():
    loop = EventLoop()
    seen = []
    loop.call_after(3.0, seen.append, "edge")
    loop.run_until(3.0)
    assert seen == ["edge"]


def test_run_until_backwards_rejected():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(SimulationError):
        loop.run_until(1.0)


def test_stop_from_inside_callback():
    loop = EventLoop()
    seen = []

    def stopper():
        seen.append("stop")
        loop.stop()

    loop.call_after(1.0, stopper)
    loop.call_after(2.0, seen.append, "late")
    loop.run()
    assert seen == ["stop"]
    assert loop.pending() == 1


def test_events_scheduled_during_run_execute():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            loop.call_after(1.0, chain, n + 1)

    loop.call_after(0.0, chain, 1)
    loop.run()
    assert seen == [1, 2, 3]
    assert loop.now == 2.0


def test_max_events_bound():
    loop = EventLoop()
    seen = []
    for i in range(10):
        loop.call_after(float(i), seen.append, i)
    loop.run(max_events=4)
    assert seen == [0, 1, 2, 3]


def test_pending_excludes_cancelled():
    loop = EventLoop()
    keep = loop.call_after(1.0, lambda: None)
    drop = loop.call_after(2.0, lambda: None)
    drop.cancel()
    assert loop.pending() == 1
    keep.cancel()
    assert loop.pending() == 0


def test_events_executed_counter():
    loop = EventLoop()
    for i in range(5):
        loop.call_after(float(i), lambda: None)
    loop.run()
    assert loop.events_executed == 5


# --------------------------------------------------------------------- #
# heap compaction around the _COMPACT_MIN boundary
# --------------------------------------------------------------------- #


def test_no_compaction_below_min_heap_size():
    # One entry short of the floor: even with almost everything cancelled
    # the heap keeps its garbage (rebuild would cost more than the scan).
    loop = EventLoop()
    seen = []
    events = [loop.call_after(float(i + 1), seen.append, i)
              for i in range(_COMPACT_MIN - 1)]
    for event in events[:-1]:
        event.cancel()
    assert len(loop._heap) == _COMPACT_MIN - 1
    assert loop.pending() == 1
    loop.run()
    assert seen == [_COMPACT_MIN - 2]


def test_compaction_triggers_at_min_heap_size():
    # At exactly _COMPACT_MIN entries, the cancel that tips cancelled*2 over
    # the heap size rebuilds the heap: garbage gone, counter reset.
    loop = EventLoop()
    events = [loop.call_after(float(i + 1), lambda: None)
              for i in range(_COMPACT_MIN)]
    majority = _COMPACT_MIN // 2 + 1
    for event in events[:majority]:
        event.cancel()
    assert len(loop._heap) == _COMPACT_MIN - majority
    assert loop._cancelled == 0
    assert loop.pending() == _COMPACT_MIN - majority


def test_survivors_fire_in_order_after_compaction():
    loop = EventLoop()
    seen = []
    events = [loop.call_after(float(i + 1), seen.append, i)
              for i in range(_COMPACT_MIN)]
    for event in events[::2]:
        event.cancel()
    extra = events[1]
    extra.cancel()  # tips the ratio: compaction has happened by now
    loop.run()
    assert seen == [i for i in range(3, _COMPACT_MIN, 2)]


# --------------------------------------------------------------------- #
# cancellation, tie-breaks and hooks on the one heap tier
# --------------------------------------------------------------------- #


def test_cancel_before_firing_leaves_nothing_to_run():
    loop = EventLoop()
    seen = []
    event = loop.call_after(5.0, seen.append, "timer", recycle=True)
    event.cancel()
    assert loop.pending() == 0
    loop.run()
    assert seen == []
    assert loop.events_executed == 0


def test_ties_break_by_seq_with_or_without_wheel():
    # ``wheel=True`` is accepted and ignored: such a call takes its place
    # in the (time, seq) order exactly like any other.
    loop = EventLoop()
    seen = []
    loop.call_at(2.0, seen.append, "a", wheel=True)
    loop.call_at(2.0, seen.append, "b")
    loop.call_after(2.0, seen.append, "c", wheel=True, recycle=True)
    loop.call_at(1.0, seen.append, "early", wheel=True)
    loop.call_at(2.0, seen.append, "d")
    loop.run()
    assert seen == ["early", "a", "b", "c", "d"]


def test_hooks_see_every_event_in_order():
    loop = EventLoop()
    hooked = []
    loop.add_hook(lambda lp, event, wall: hooked.append(event.time))
    loop.call_at(2.05, lambda: None, recycle=True)
    loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    loop.run()
    assert hooked == [1.0, 2.0, 2.05]


def test_hook_sampling_counts_across_tiers():
    # sample_every follows the global executed-event counter, so the
    # sampled subset does not depend on how an event was scheduled.
    loop = EventLoop()
    hooked = []
    loop.add_hook(lambda lp, event, wall: hooked.append(event.time),
                  sample_every=2)
    for i in range(6):
        loop.call_at(float(i + 1), lambda: None, recycle=(i % 2 == 0))
    loop.run()
    # events 2, 4, 6 of the interleaved run are sampled
    assert hooked == [2.0, 4.0, 6.0]


def test_untimed_hook_gets_zero_wall_and_fires_every_event():
    loop = EventLoop()
    walls = []
    loop.add_hook(lambda lp, event, wall: walls.append(wall), timed=False)
    loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    loop.run()
    assert walls == [0.0, 0.0]


def test_timed_and_untimed_hooks_coexist():
    # An untimed hook must not suppress the wall measurement a timed hook
    # relies on, and vice versa.
    loop = EventLoop()
    seen = {"timed": [], "untimed": []}
    loop.add_hook(lambda lp, event, wall: seen["timed"].append(wall))
    loop.add_hook(lambda lp, event, wall: seen["untimed"].append(wall),
                  timed=False)
    loop.call_at(1.0, lambda: None)
    loop.run()
    assert len(seen["timed"]) == 1 and seen["timed"][0] >= 0.0
    # the wall reading already paid for the timed hook is shared with the
    # untimed one (untimed means "doesn't *require* timing", not "gets 0")
    assert seen["untimed"] == seen["timed"]


# --------------------------------------------------------------------- #
# event series: many occurrences behind one re-arming event
# --------------------------------------------------------------------- #

def _series(loop, times, log, greedy=True, single=()):
    """Schedule ``times`` as a series.  The consumer logs what it handles;
    ``greedy`` takes the whole offered chunk, except that an occurrence in
    ``single`` is only ever handled by a call of its own."""
    first = loop.reserve_seqs(len(times))
    seqs = list(range(first, first + len(times)))
    chunks = []

    def consume(start, end):
        assert loop.now == times[start]
        stop = end if greedy else start + 1
        for index in range(start, stop):
            if index in single and index > start:
                stop = index
                break
        if start in single:
            stop = start + 1
        chunks.append((start, stop))
        log.extend(("series", index) for index in range(start, stop))
        return stop

    return loop.call_series(times, seqs, consume), chunks


def test_series_occurrences_keep_their_place_among_other_events():
    loop = EventLoop()
    log = []
    loop.call_at(2.5, log.append, "foreign@2.5")
    series, chunks = _series(loop, [1.0, 2.0, 3.0, 4.0], log)
    loop.call_at(3.5, log.append, "foreign@3.5")
    loop.run()
    assert log == [("series", 0), ("series", 1), "foreign@2.5",
                   ("series", 2), "foreign@3.5", ("series", 3)]
    assert chunks == [(0, 2), (2, 3), (3, 4)]
    assert series.pos == 4
    # three invocations + two foreign events are loop steps; the fourth
    # occurrence was absorbed inside another's invocation
    assert loop.events_executed == 5
    assert loop.events_absorbed == 1
    assert loop.now == 4.0
    assert loop.pending() == 0


def test_series_ties_break_by_reserved_sequence_number():
    """A foreign event at exactly an occurrence's time runs before it when
    it was scheduled before the seqs were reserved, after it otherwise."""
    loop = EventLoop()
    log = []
    loop.call_at(2.0, log.append, "earlier-seq")
    _series(loop, [1.0, 2.0, 2.0, 3.0], log)
    loop.call_at(2.0, log.append, "later-seq")
    loop.run()
    assert log == [("series", 0), "earlier-seq", ("series", 1),
                   ("series", 2), "later-seq", ("series", 3)]


def test_series_stops_at_the_run_until_bound():
    loop = EventLoop()
    log = []
    series, _ = _series(loop, [1.0, 2.0, 3.0, 4.0], log)
    loop.run_until(2.0)            # boundary events included, like step()
    assert log == [("series", 0), ("series", 1)]
    assert loop.now == 2.0 and series.pos == 2
    assert loop.pending() == 1     # re-armed under occurrence 2's key
    loop.run_until(2.5)
    assert log == [("series", 0), ("series", 1)] and loop.now == 2.5
    loop.run_until(10.0)
    assert [entry[1] for entry in log] == [0, 1, 2, 3]
    assert loop.now == 10.0
    assert loop.events_executed + loop.events_absorbed == 4


def test_series_rereads_the_bound_after_a_single_occurrence():
    """An occurrence handled alone may schedule an event inside the rest
    of the run; the occurrences after it must wait for that event."""
    loop = EventLoop()
    log = []
    times = [1.0, 2.0, 3.0, 4.0]
    first = loop.reserve_seqs(4)
    seqs = list(range(first, first + 4))

    def consume(start, end):
        if start == 0:
            # the "slow" occurrence: alone, and it schedules into the run
            log.append(("series", 0))
            loop.call_at(2.5, log.append, "scheduled-by-0")
            return 1
        log.extend(("series", index) for index in range(start, end))
        return end

    loop.call_series(times, seqs, consume)
    loop.run()
    assert log == [("series", 0), ("series", 1), "scheduled-by-0",
                   ("series", 2), ("series", 3)]


def test_series_one_at_a_time_consumer_counts_every_occurrence_once():
    loop = EventLoop()
    log = []
    series, chunks = _series(loop, [1.0, 1.5, 2.0], log, greedy=False)
    steps = 0
    while loop.step():
        steps += 1
    # nothing else is pending, so one invocation walks the whole series,
    # one occurrence per consume call
    assert chunks == [(0, 1), (1, 2), (2, 3)]
    assert steps == loop.events_executed == 1
    assert loop.events_absorbed == 2


def test_series_honours_stop_between_occurrences():
    loop = EventLoop()
    log = []
    times = [1.0, 2.0, 3.0]
    first = loop.reserve_seqs(3)
    seqs = list(range(first, first + 3))

    def consume(start, end):
        log.append(start)
        if start == 0:
            loop.stop()
        return start + 1

    loop.call_series(times, seqs, consume)
    loop.run()
    assert log == [0]
    loop.run()
    assert log == [0, 1, 2]


def test_empty_series_schedules_nothing():
    loop = EventLoop()
    series = loop.call_series([], [], lambda start, end: end)
    assert series.pos == 0 and loop.pending() == 0
