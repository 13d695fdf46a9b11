"""Edge-keyed delivery delays for a whole group of senders at once.

:meth:`repro.cluster.network.MessageBus.plan_delays` draws one message's
drop and jitter from the edge's counter-indexed hash stream: a splitmix64
finalizer over ``key ^ (index << 3) ^ slot``, its top 53 bits scaled onto
``[0, 1)``.  A heartbeat cohort needs that for every member at the same
instant, so the numpy backend evaluates the same integer hash on ``uint64``
columns (array multiplication wraps modulo 2**64, which is what the scalar
code's ``& _M64`` does) and the same ``(latency + epsilon) + draw * jitter``
on ``float64`` columns: elementwise IEEE-754 operations in the scalar
code's order, so every delay is bit-identical to ``plan_delays``.  The
python backend is the bus looping over ``plan_delays`` itself.

:func:`arrival_order` turns either backend's delays into the order the
messages arrive in; both sort stably, so equal arrival times keep sender
order.

:class:`EdgeColumns` owns its scratch arrays: one firing of a 20,000-member
cohort runs ~25 whole-column operations, and letting each allocate its
160 KB result (above the allocator's mmap threshold) costs more than the
arithmetic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro import kernels

#: 2**-53: maps the top 53 bits of a 64-bit hash onto [0, 1)
_TO_UNIT = 1.0 / (1 << 53)

#: draw slots of one message, as ``MessageBus.plan_delays`` assigns them
_DROP_SLOT = 0
_JITTER_SLOT = 2

#: splitmix64 finalizer: two (shift, multiplier) rounds, a last shift, and
#: the shift that keeps a hash's top 53 bits
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
_LAST_SHIFT = 31
_TOP53_SHIFT = 11


class EdgeColumns:
    """Key and epsilon columns of a fixed list of edges, plus scratch."""

    def __init__(self, keys: Sequence[int], epsilons: Sequence[float]):
        np = self._np = kernels.np()
        u64 = np.uint64
        size = len(keys)
        self._keys = np.array(keys, dtype=u64)
        self._epsilons = np.array(epsilons, dtype=np.float64)
        self._base = np.empty(size, dtype=u64)
        self._hash = np.empty(size, dtype=u64)
        self._shifted = np.empty(size, dtype=u64)
        self._draw = np.empty(size, dtype=np.float64)
        self._delays = np.empty(size, dtype=np.float64)
        self._dropped = np.empty(size, dtype=bool)
        # numpy 1.x promotes uint64 <op> python-int to float64: keep every
        # constant a uint64 scalar
        self._u64 = {value: u64(value) for value in (
            3, _DROP_SLOT, _JITTER_SLOT, _LAST_SHIFT, _TOP53_SHIFT,
            *(constant for round_ in _ROUNDS for constant in round_))}

    def _draw_slot(self, slot: int):
        """``_draw(base, slot)`` of every edge into the draw column."""
        np, u64 = self._np, self._u64
        mixed, shifted = self._hash, self._shifted
        np.bitwise_xor(self._base, u64[slot], out=mixed)
        for shift, multiplier in _ROUNDS:
            np.right_shift(mixed, u64[shift], out=shifted)
            np.bitwise_xor(mixed, shifted, out=mixed)
            np.multiply(mixed, u64[multiplier], out=mixed)
        np.right_shift(mixed, u64[_LAST_SHIFT], out=shifted)
        np.bitwise_xor(mixed, shifted, out=mixed)
        np.right_shift(mixed, u64[_TOP53_SHIFT], out=shifted)
        draw = self._draw
        draw[:] = shifted  # < 2**53: exact in float64
        np.multiply(draw, _TO_UNIT, out=draw)
        return draw

    def delays(self, indices: Sequence[int], latency: float, jitter: float,
               drop_prob: float) -> Tuple[object, Optional[object]]:
        """The next message's delay on every edge, given each edge's
        message index.  Returns ``(delays, dropped)``: a float64 column and
        a bool column (``None`` when ``drop_prob`` is zero).  Both are
        scratch, valid until the next call."""
        np = self._np
        base = self._base
        base[:] = indices
        np.left_shift(base, self._u64[3], out=base)
        np.bitwise_xor(base, self._keys, out=base)
        dropped = None
        if drop_prob:
            dropped = self._dropped
            np.less(self._draw_slot(_DROP_SLOT), drop_prob, out=dropped)
        delays = self._delays
        np.add(self._epsilons, latency, out=delays)
        if jitter:
            draw = self._draw_slot(_JITTER_SLOT)
            np.multiply(draw, jitter, out=draw)
            np.add(delays, draw, out=delays)
        return delays, dropped


def arrival_order(now: float, delays, dropped
                  ) -> Tuple[List[int], List[float]]:
    """Who arrives when: ``(order, arrivals)`` for messages sent at ``now``.

    ``order`` lists the positions of the messages that were not dropped,
    sorted by ``(now + delay, position)``; ``arrivals`` holds their arrival
    times in that order.  ``delays`` / ``dropped`` are the columns either
    backend's delay pass returned: lists under python, arrays under numpy
    (``dropped`` may be ``None``).
    """
    if isinstance(delays, list):
        times = [now + delay for delay in delays]
        if dropped is None:
            order = sorted(range(len(times)), key=times.__getitem__)
        else:
            order = sorted((index for index, gone in enumerate(dropped)
                            if not gone), key=times.__getitem__)
        return order, [times[index] for index in order]
    times = now + delays
    if dropped is not None and dropped.any():
        live = (~dropped).nonzero()[0]
        times = times[live]
        ranks = times.argsort(kind="stable")
        return live[ranks].tolist(), times[ranks].tolist()
    order = times.argsort(kind="stable")
    return order.tolist(), times[order].tolist()
