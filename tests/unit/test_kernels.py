"""The kernel layer: backend selection, columnar equivalence."""

import pytest
from hypothesis import given, strategies as st

from repro import kernels
from repro.kernels.fitindex import NumpyFitColumns, PyFitColumns
from repro.kernels.heartbeat import PyTimeColumn
from repro.core.resources import ResourceVector

needs_numpy = pytest.mark.skipif(not kernels.numpy_available(),
                                 reason="numpy not installed")


# ------------------------- backend selection ------------------------ #

def test_auto_resolves_to_an_available_backend():
    resolved = kernels.resolve("auto")
    assert resolved in ("numpy", "python")
    if kernels.numpy_available():
        assert resolved == "numpy"


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
    with pytest.raises(ValueError):
        kernels.resolve("fortran")


def test_numpy_requested_but_absent_raises():
    if kernels.numpy_available():
        pytest.skip("numpy present; the error path needs it absent")
    with pytest.raises(RuntimeError):
        kernels.resolve("numpy")


# -------------------- fit-columns backend equivalence ---------------- #

_DIMS = ("cpu", "memory", "disk")


def _vec(draw_units):
    return ResourceVector.of(**{d: u for d, u in zip(_DIMS, draw_units)})


@needs_numpy
@given(ops=st.lists(
    st.tuples(st.sampled_from([f"m{i}" for i in range(6)]),
              st.sampled_from(["set", "drop"]),
              st.tuples(*[st.floats(min_value=0.0, max_value=400.0,
                                    allow_nan=False) for _ in _DIMS])),
    max_size=50))
def test_fit_columns_backends_agree(ops):
    """bulk_units must match bit-for-bit between numpy and python."""
    free_py: dict = {}
    free_np: dict = {}
    py = PyFitColumns(free_py)
    np_cols = NumpyFitColumns(free_np)
    for machine, op, units in ops:
        if op == "set":
            vec = _vec(units)
            free_py[machine] = vec
            free_np[machine] = vec
            py.set_free(machine, vec)
            np_cols.set_free(machine, vec)
        else:
            free_py.pop(machine, None)
            free_np.pop(machine, None)
            py.drop(machine)
            np_cols.drop(machine)
        machines = sorted(free_py)
        for size in (ResourceVector.of(cpu=100.0, memory=64.0),
                     ResourceVector.of(cpu=0.5, disk=3.0),
                     ResourceVector.of(memory=1.0)):
            assert py.bulk_units(size, machines) == \
                np_cols.bulk_units(size, machines)


@needs_numpy
def test_fit_columns_dropped_machine_reports_zero():
    free: dict = {}
    cols = NumpyFitColumns(free)
    vec = ResourceVector.of(cpu=200.0)
    free["m1"] = vec
    cols.set_free("m1", vec)
    cols.drop("m1")
    free.pop("m1")
    free["m1"] = vec          # re-add reuses the interned slot
    cols.set_free("m1", vec)
    assert cols.bulk_units(ResourceVector.of(cpu=100.0), ["m1"]) == [2]


# -------------------- time-column backend equivalence ---------------- #

def _column_pair():
    backends = [PyTimeColumn()]
    if kernels.numpy_available():
        from repro.kernels.heartbeat import NumpyTimeColumn
        backends.append(NumpyTimeColumn())
    return backends


@given(ops=st.lists(
    st.tuples(st.sampled_from([f"m{i}" for i in range(5)]),
              st.sampled_from(["set", "pop", "reset"]),
              st.floats(min_value=0.0, max_value=1000.0,
                        allow_nan=False)),
    max_size=60))
def test_time_column_backends_agree(ops):
    """Order, staleness and threshold queries match across backends.

    The heartbeat tier depends on ordered-dict semantics: insertion order
    is preserved, an update keeps the slot, pop + re-add moves to the end.
    """
    columns = _column_pair()
    now = 0.0
    for machine, op, value in ops:
        now = max(now, value)
        for col in columns:
            if op == "set":
                col.set(machine, value)
            elif op == "pop":
                col.pop(machine)
            else:
                col.pop(machine)
                col.set(machine, value)
        first = columns[0]
        for col in columns[1:]:
            assert len(col) == len(first)
            assert (machine in col) == (machine in first)
            assert list(col.values()) == list(first.values())
            for threshold in (0.0, 10.0, 250.0):
                assert list(col.stale(now, threshold)) == \
                    list(first.stale(now, threshold))
                assert list(col.elapsed_at_least(now, threshold)) == \
                    list(first.elapsed_at_least(now, threshold))


def test_time_column_clear():
    for col in _column_pair():
        col.set("a", 1.0)
        col.set("b", 2.0)
        col.clear()
        assert len(col) == 0
        assert list(col.values()) == []


@needs_numpy
def test_numpy_time_column_compacts_preserving_order():
    from repro.kernels.heartbeat import NumpyTimeColumn
    col = NumpyTimeColumn()
    for i in range(200):
        col.set(f"m{i}", float(i))
    for i in range(0, 200, 2):
        col.pop(f"m{i}")          # punch enough holes to force compaction
    col.set("m1", 999.0)          # update keeps position
    survivors = [f"m{i}" for i in range(1, 200, 2)]
    assert list(col.stale(2000.0, 0.0)) == survivors
    assert col.get("m1") == 999.0
