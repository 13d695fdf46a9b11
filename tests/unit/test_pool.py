"""Unit + property tests for the free resource pool."""

import pytest
from hypothesis import given, strategies as st

from repro.core.pool import FreeResourcePool
from repro.core.resources import ResourceVector

CAP = ResourceVector.of(cpu=400, memory=8192)
SLOT = ResourceVector.of(cpu=100, memory=2048)


def make_pool(machines=("m1", "m2")):
    pool = FreeResourcePool()
    for machine in machines:
        pool.add_machine(machine, CAP)
    return pool


def test_new_machine_fully_free():
    pool = make_pool()
    assert pool.free("m1") == CAP
    assert pool.allocated("m1").is_zero()


def test_allocate_reduces_free():
    pool = make_pool()
    pool.allocate("m1", SLOT)
    assert pool.free("m1") == CAP - SLOT
    assert pool.allocated("m1") == SLOT


def test_allocate_beyond_free_raises():
    pool = make_pool()
    with pytest.raises(ValueError):
        pool.allocate("m1", CAP + SLOT)


def test_allocate_unknown_machine_raises():
    with pytest.raises(KeyError):
        make_pool().allocate("nope", SLOT)


def test_release_restores():
    pool = make_pool()
    pool.allocate("m1", SLOT * 2)
    pool.release("m1", SLOT)
    assert pool.free("m1") == CAP - SLOT


def test_release_clamped_at_capacity():
    pool = make_pool()
    pool.release("m1", SLOT)   # over-release during failover rebuild
    assert pool.free("m1") == CAP


def test_release_unknown_machine_is_noop():
    make_pool().release("nope", SLOT)


def test_capacity_refresh_preserves_allocation():
    pool = make_pool()
    pool.allocate("m1", SLOT)
    bigger = ResourceVector.of(cpu=800, memory=16384)
    pool.add_machine("m1", bigger)
    assert pool.capacity("m1") == bigger
    assert pool.allocated("m1") == SLOT


def test_capacity_shrink_clamps_free():
    pool = make_pool()
    pool.allocate("m1", SLOT * 3)
    tiny = ResourceVector.of(cpu=100, memory=2048)
    pool.add_machine("m1", tiny)
    assert pool.free("m1").is_zero()


def test_remove_machine():
    pool = make_pool()
    pool.remove_machine("m1")
    assert not pool.has_machine("m1")
    assert pool.machines() == ["m2"]


def test_disable_stops_offering():
    pool = make_pool()
    pool.disable("m1")
    assert pool.is_disabled("m1")
    assert not pool.fits("m1", SLOT)
    assert pool.max_units("m1", SLOT) == 0
    assert "m1" not in list(pool.schedulable_machines())
    assert pool.best_fit_machines(SLOT) == [("m2", 4)]


def test_enable_restores_offering():
    pool = make_pool()
    pool.disable("m1")
    pool.enable("m1")
    assert pool.fits("m1", SLOT)


def test_disable_unknown_machine_ignored():
    pool = make_pool()
    pool.disable("nope")
    assert not pool.is_disabled("nope")


def test_totals():
    pool = make_pool()
    pool.allocate("m1", SLOT)
    assert pool.total_capacity() == CAP * 2
    assert pool.total_allocated() == SLOT
    assert pool.total_free() == CAP * 2 - SLOT


def test_utilization_per_dimension():
    pool = make_pool()
    pool.allocate("m1", ResourceVector.of(cpu=400))
    assert pool.utilization("CPU") == pytest.approx(0.5)
    assert pool.utilization("Memory") == 0.0
    assert pool.utilization("gpu") == 0.0


def test_best_fit_orders_most_free_first():
    pool = make_pool(("m1", "m2", "m3"))
    pool.allocate("m1", SLOT * 3)
    pool.allocate("m2", SLOT * 1)
    ranked = pool.best_fit_machines(SLOT)
    assert ranked == [("m3", 4), ("m2", 3), ("m1", 1)]


def test_best_fit_skips_full_machines():
    pool = make_pool()
    pool.allocate("m1", CAP)
    assert pool.best_fit_machines(SLOT) == [("m2", 4)]


def test_best_fit_with_explicit_candidates():
    pool = make_pool(("m1", "m2", "m3"))
    ranked = pool.best_fit_machines(SLOT, candidates=iter(["m2"]))
    assert ranked == [("m2", 4)]


# --------------------------- properties ----------------------------- #

@given(st.lists(st.tuples(st.sampled_from(["m1", "m2"]),
                          st.integers(min_value=1, max_value=4),
                          st.booleans()), max_size=40))
def test_conservation_free_plus_allocated_is_capacity(ops):
    """free + allocated == capacity after any allocate/release sequence."""
    pool = make_pool()
    for machine, units, is_release in ops:
        amount = SLOT * units
        if is_release:
            pool.release(machine, amount)
        else:
            if amount.fits_in(pool.free(machine)):
                pool.allocate(machine, amount)
        for m in ("m1", "m2"):
            assert pool.free(m) + pool.allocated(m) == pool.capacity(m)
            assert pool.free(m).fits_in(pool.capacity(m))


@given(st.lists(st.tuples(st.sampled_from(["m1", "m2"]),
                          st.integers(min_value=1, max_value=4)),
                max_size=30))
def test_best_fit_index_matches_exhaustive_scan(ops):
    """The _has_free index never hides a machine that could serve a unit."""
    pool = make_pool()
    for machine, units in ops:
        amount = SLOT * units
        if amount.fits_in(pool.free(machine)):
            pool.allocate(machine, amount)
    indexed = {m for m, _ in pool.best_fit_machines(SLOT)}
    exhaustive = {m for m in pool.machines() if pool.max_units(m, SLOT) > 0}
    assert indexed == exhaustive


# ------------------- shape-index ranking equivalence ---------------- #

MACHINES = tuple(f"m{i:02d}" for i in range(8))
SIZES = (SLOT, ResourceVector.of(cpu=50, memory=1024),
         ResourceVector.of(cpu=200, memory=512))


def reference_ranking(pool, unit_size):
    """The pre-index linear scan: (-units, name) over schedulable machines."""
    scored = []
    for machine in pool.machines():
        if pool.is_disabled(machine):
            continue
        units = unit_size.max_units_in(pool.free(machine))
        if units > 0:
            scored.append((machine, units))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored


@given(st.lists(st.tuples(st.sampled_from(MACHINES),
                          st.sampled_from(range(len(SIZES))),
                          st.integers(min_value=1, max_value=4),
                          st.sampled_from(["alloc", "release", "disable",
                                           "enable", "remove", "add"])),
                max_size=60))
def test_ranking_matches_reference_scan_on_random_demand(ops):
    """best_fit_machines == the old exhaustive scan after arbitrary churn.

    Exercises every mutation the incremental shape indexes must track:
    allocate, release, disable/enable, machine removal and re-add —
    interleaved with ranking queries for several distinct unit sizes.
    """
    pool = make_pool(MACHINES)
    for machine, size_idx, units, op in ops:
        amount = SIZES[size_idx] * units
        if op == "alloc":
            if pool.has_machine(machine) and amount.fits_in(pool.free(machine)):
                pool.allocate(machine, amount)
        elif op == "release":
            pool.release(machine, amount)
        elif op == "disable":
            pool.disable(machine)
        elif op == "enable":
            pool.enable(machine)
        elif op == "remove":
            pool.remove_machine(machine)
        else:
            pool.add_machine(machine, CAP)
        for size in SIZES:
            assert pool.best_fit_machines(size) == reference_ranking(pool, size)


def _kernel_backends():
    from repro import kernels
    return ("python", "numpy") if kernels.numpy_available() else ("python",)


@pytest.mark.parametrize("backend", _kernel_backends())
@given(ops=st.lists(st.tuples(st.sampled_from(MACHINES),
                              st.sampled_from(range(len(SIZES))),
                              st.integers(min_value=1, max_value=4),
                              st.sampled_from(["alloc", "release", "disable",
                                               "enable", "remove", "add"])),
                    max_size=40))
def test_ranking_matches_reference_on_every_kernel_backend(backend, ops):
    """The pool ranks identically whichever kernel backend is active.

    The fit index runs in Python on every host; the same churn sequence
    must still rank exactly as the reference scan with either backend
    selected — the byte-identity contract of :mod:`repro.kernels`.
    """
    from repro import kernels

    with kernels.use(backend):
        pool = make_pool(MACHINES)
        for machine, size_idx, units, op in ops:
            amount = SIZES[size_idx] * units
            if op == "alloc":
                if pool.has_machine(machine) \
                        and amount.fits_in(pool.free(machine)):
                    pool.allocate(machine, amount)
            elif op == "release":
                pool.release(machine, amount)
            elif op == "disable":
                pool.disable(machine)
            elif op == "enable":
                pool.enable(machine)
            elif op == "remove":
                pool.remove_machine(machine)
            else:
                pool.add_machine(machine, CAP)
            for size in SIZES:
                assert pool.best_fit_machines(size) == \
                    reference_ranking(pool, size)


def test_ranking_with_candidates_matches_reference():
    pool = make_pool(MACHINES)
    pool.allocate("m00", SLOT * 3)
    pool.allocate("m01", SLOT * 1)
    pool.disable("m02")
    subset = ["m00", "m01", "m02", "m03"]
    expected = [entry for entry in reference_ranking(pool, SLOT)
                if entry[0] in subset]
    assert pool.best_fit_machines(SLOT, candidates=iter(subset)) == expected


def test_ranking_over_the_shape_cap_matches_reference():
    """Unit sizes beyond the indexed ones are ranked by a plain scan, with
    and without candidates, in the same ``(-units, name)`` order."""
    from repro.core.pool import _MAX_SHAPE_INDEXES

    pool = make_pool(MACHINES)
    for position, machine in enumerate(MACHINES):
        pool.allocate(machine, SLOT * (position % 4))
    pool.disable("m03")
    for extra in range(_MAX_SHAPE_INDEXES):
        pool.best_fit_machines(ResourceVector.of(cpu=1.0 + extra))
    size = ResourceVector.of(cpu=90, memory=1000)
    assert pool.best_fit_machines(size) == reference_ranking(pool, size)
    assert pool.best_fit_machines(size, limit=3) == \
        reference_ranking(pool, size)[:3]
    subset = ["m07", "m03", "m00", "m05"]
    assert pool.best_fit_machines(size, candidates=iter(subset)) == \
        [entry for entry in reference_ranking(pool, size)
         if entry[0] in subset]
