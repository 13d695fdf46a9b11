"""Unit + property tests for the allocation ledger."""

import pytest
from hypothesis import given, strategies as st

from repro.core.grant import AllocationLedger, Grant
from repro.core.resources import ResourceVector
from repro.core.units import UnitKey

K1 = UnitKey("app1", 1)
K2 = UnitKey("app1", 2)
K3 = UnitKey("app2", 1)


def test_zero_grant_rejected():
    with pytest.raises(ValueError):
        Grant(K1, "m1", 0)


def test_is_revocation():
    assert Grant(K1, "m1", -1).is_revocation
    assert not Grant(K1, "m1", 1).is_revocation


def test_apply_accumulates():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 3))
    ledger.apply(Grant(K1, "m1", 2))
    assert ledger.count(K1, "m1") == 5


def test_revocation_reduces_and_removes():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 3))
    ledger.apply(Grant(K1, "m1", -3))
    assert ledger.count(K1, "m1") == 0
    assert len(ledger) == 0


def test_over_revocation_raises():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 1))
    with pytest.raises(ValueError):
        ledger.apply(Grant(K1, "m1", -2))


def test_per_machine_queries():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 3))
    ledger.apply(Grant(K3, "m1", 2))
    ledger.apply(Grant(K1, "m2", 4))
    assert ledger.count_on_machine("m1") == 5
    assert dict(ledger.entries_for_machine("m1")) == {K1: 3, K3: 2}


def test_per_unit_queries():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 3))
    ledger.apply(Grant(K1, "m2", 4))
    assert ledger.total_units(K1) == 7
    assert ledger.machines_of(K1) == [("m1", 3), ("m2", 4)]


def test_entries_for_app():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 1))
    ledger.apply(Grant(K2, "m1", 2))
    ledger.apply(Grant(K3, "m1", 3))
    app1 = list(ledger.entries_for_app("app1"))
    assert {(k, m) for k, m, _ in app1} == {(K1, "m1"), (K2, "m1")}


def test_drop_app_returns_revocations():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 2))
    ledger.apply(Grant(K3, "m1", 1))
    revoked = ledger.drop_app("app1")
    assert revoked == [Grant(K1, "m1", -2)]
    assert ledger.count(K3, "m1") == 1


def test_drop_machine_returns_revocations():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 2))
    ledger.apply(Grant(K1, "m2", 5))
    revoked = ledger.drop_machine("m1")
    assert revoked == [Grant(K1, "m1", -2)]
    assert ledger.total_units(K1) == 5


def test_set_count_overwrites():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 2))
    ledger.set_count(K1, "m1", 7)
    assert ledger.count(K1, "m1") == 7
    ledger.set_count(K1, "m1", 0)
    assert len(ledger) == 0


def test_set_count_negative_rejected():
    with pytest.raises(ValueError):
        AllocationLedger().set_count(K1, "m1", -1)


def test_resources_on_machine():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 2))
    sizes = {K1: ResourceVector.of(cpu=50, memory=100)}
    total = ledger.resources_on_machine("m1", sizes.__getitem__)
    assert total == ResourceVector.of(cpu=100, memory=200)


def test_snapshot_shape():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 2))
    ledger.apply(Grant(K3, "m2", 1))
    snap = ledger.snapshot()
    assert snap == {"app1": {"1": {"m1": 2}}, "app2": {"1": {"m2": 1}}}


def test_copy_is_independent():
    ledger = AllocationLedger()
    ledger.apply(Grant(K1, "m1", 2))
    clone = ledger.copy()
    clone.apply(Grant(K1, "m1", -2))
    assert ledger.count(K1, "m1") == 2
    assert clone.count(K1, "m1") == 0
    assert not ledger.equals(clone)


# --------------------------- properties ----------------------------- #

grant_strategy = st.builds(
    Grant,
    st.sampled_from([K1, K2, K3]),
    st.sampled_from(["m1", "m2", "m3"]),
    st.integers(min_value=1, max_value=5))


@given(st.lists(grant_strategy, max_size=40))
def test_indexes_stay_consistent(grants):
    """The per-machine and per-unit indexes always agree with the flat map."""
    ledger = AllocationLedger()
    for grant in grants:
        ledger.apply(grant)
        # occasionally revoke half of what we just granted
        if grant.count > 1:
            ledger.apply(Grant(grant.unit_key, grant.machine,
                               -(grant.count // 2)))
    flat_total = sum(c for _, _, c in ledger.entries())
    by_machine = sum(ledger.count_on_machine(m) for m in ("m1", "m2", "m3"))
    by_unit = sum(ledger.total_units(k) for k in (K1, K2, K3))
    assert flat_total == by_machine == by_unit


ledger_op = st.one_of(
    st.tuples(st.just("apply"), grant_strategy, st.booleans()),
    st.tuples(st.just("set_count"), st.sampled_from([K1, K2, K3]),
              st.sampled_from(["m1", "m2", "m3"]), st.integers(0, 5)),
    st.tuples(st.just("drop_app"), st.sampled_from(["app1", "app2"])),
    st.tuples(st.just("drop_machine"), st.sampled_from(["m1", "m2", "m3"])),
    st.tuples(st.just("copy")))


@given(st.lists(ledger_op, max_size=40))
def test_unit_totals_equal_the_sum_over_machines(ops):
    """``total_units`` is kept, not summed: it must equal the per-machine
    sum after any sequence of changes, on the ledger and on its copies."""
    ledger = AllocationLedger()
    for op in ops:
        if op[0] == "apply":
            _, grant, revoke = op
            if revoke:
                held = ledger.count(grant.unit_key, grant.machine)
                if not held:
                    continue
                grant = Grant(grant.unit_key, grant.machine,
                              -min(grant.count, held))
            ledger.apply(grant)
        elif op[0] == "set_count":
            ledger.set_count(*op[1:])
        elif op[0] == "drop_app":
            ledger.drop_app(op[1])
        elif op[0] == "drop_machine":
            ledger.drop_machine(op[1])
        else:
            clone = ledger.copy()
            assert clone.unit_totals() is not ledger.unit_totals()
            ledger = clone
        for key in (K1, K2, K3):
            assert ledger.total_units(key) == sum(
                count for _, count in ledger.machines_of(key))
        assert ledger.unit_totals() == {
            key: ledger.total_units(key) for key in (K1, K2, K3)
            if ledger.total_units(key)}


@given(st.lists(grant_strategy, max_size=30))
def test_drop_app_removes_everything(grants):
    ledger = AllocationLedger()
    for grant in grants:
        ledger.apply(grant)
    ledger.drop_app("app1")
    assert not list(ledger.entries_for_app("app1"))
    assert ledger.total_units(K1) == 0
    assert ledger.total_units(K2) == 0
