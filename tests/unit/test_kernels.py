"""The kernel layer: backend selection, the liveness time column."""

import pytest
from hypothesis import given, strategies as st

from repro import kernels
from repro.kernels.heartbeat import make_time_column


# ------------------------- backend selection ------------------------ #

def test_auto_resolves_to_an_available_backend():
    with kernels.use("auto") as resolved:
        assert resolved == kernels.current()
    assert resolved == ("numpy" if kernels.numpy_available() else "python")


def test_python_backend_always_available():
    with kernels.use("python"):
        assert kernels.current() == "python"
        assert kernels.np() is None


def test_use_restores_previous_backend():
    before = kernels.current()
    with kernels.use("python"):
        assert kernels.current() == "python"
    assert kernels.current() == before


def test_unknown_backend_rejected():
    before = kernels.current()
    with pytest.raises(ValueError):
        kernels.select("fortran")
    assert kernels.current() == before


def test_numpy_requested_but_absent_raises():
    if kernels.numpy_available():
        pytest.skip("numpy present; the error path needs it absent")
    with pytest.raises(RuntimeError):
        kernels.select("numpy")


# ----------------------------- time column -------------------------- #

@given(ops=st.lists(
    st.tuples(st.sampled_from([f"m{i}" for i in range(5)]),
              st.sampled_from(["set", "pop", "reset"]),
              st.floats(min_value=0.0, max_value=1000.0,
                        allow_nan=False)),
    max_size=60))
def test_time_column_matches_ordered_dict_reference(ops):
    """Order, staleness and threshold queries match a plain dict.

    The heartbeat tier depends on ordered-dict semantics: insertion order
    is preserved, an update keeps the slot, pop + re-add moves to the end.
    """
    column = make_time_column()
    reference: dict = {}
    now = 0.0
    for machine, op, value in ops:
        now = max(now, value)
        if op != "set":
            column.pop(machine)
            reference.pop(machine, None)
        if op != "pop":
            column.set(machine, value)
            reference[machine] = value
        assert len(column) == len(reference)
        assert (machine in column) == (machine in reference)
        assert list(column.values()) == list(reference.values())
        for threshold in (0.0, 10.0, 250.0):
            assert column.stale(now, threshold) == \
                [m for m, v in reference.items() if now - v > threshold]
            assert column.elapsed_at_least(now, threshold) == \
                [m for m, v in reference.items() if now - v >= threshold]


def test_time_column_clear():
    col = make_time_column()
    col.set("a", 1.0)
    col.set("b", 2.0)
    col.clear()
    assert len(col) == 0
    assert list(col.values()) == []
