"""Unit tests for ScheduleUnit and the unit registry."""

import pytest

from repro.core.resources import ResourceVector
from repro.core.units import ScheduleUnit, UnitKey, UnitRegistry

SLOT = ResourceVector.of(cpu=100, memory=1024)


def test_unit_key_identity():
    unit = ScheduleUnit("app1", 1, SLOT)
    assert unit.key == UnitKey("app1", 1)


def test_zero_resources_rejected():
    with pytest.raises(ValueError):
        ScheduleUnit("app1", 1, ResourceVector())


def test_nonpositive_max_count_rejected():
    with pytest.raises(ValueError):
        ScheduleUnit("app1", 1, SLOT, max_count=0)


def test_unit_keys_order_deterministically():
    keys = [UnitKey("b", 2), UnitKey("a", 5), UnitKey("a", 1)]
    assert sorted(keys) == [UnitKey("a", 1), UnitKey("a", 5), UnitKey("b", 2)]


def test_unit_key_fields_hash_and_text():
    key = UnitKey("job-7", 3)
    assert key == UnitKey(app_id="job-7", slot_id=3)
    assert (key.app_id, key.slot_id) == ("job-7", 3)
    # the hash a frozen dataclass of these two fields had: every set of
    # keys keeps its iteration order
    assert hash(key) == hash(("job-7", 3))
    assert repr(key) == str(key) == f"{key}" == "job-7#3"
    with pytest.raises(AttributeError):
        key.slot_id = 4


def test_registry_define_and_get():
    registry = UnitRegistry()
    unit = ScheduleUnit("app1", 1, SLOT)
    registry.define(unit)
    assert registry.get(unit.key) is unit
    assert unit.key in registry
    assert len(registry) == 1


def test_registry_redefine_replaces():
    registry = UnitRegistry()
    registry.define(ScheduleUnit("app1", 1, SLOT, priority=10))
    registry.define(ScheduleUnit("app1", 1, SLOT, priority=20))
    assert registry.get(UnitKey("app1", 1)).priority == 20
    assert len(registry) == 1


def test_registry_unknown_key_raises():
    with pytest.raises(KeyError):
        UnitRegistry().get(UnitKey("nope", 1))


def test_registry_drop_app():
    registry = UnitRegistry()
    registry.define(ScheduleUnit("app1", 1, SLOT))
    registry.define(ScheduleUnit("app1", 2, SLOT))
    registry.define(ScheduleUnit("app2", 1, SLOT))
    registry.drop_app("app1")
    assert UnitKey("app1", 1) not in registry
    assert UnitKey("app2", 1) in registry


def test_registry_units_of_app_sorted():
    registry = UnitRegistry()
    registry.define(ScheduleUnit("app1", 2, SLOT))
    registry.define(ScheduleUnit("app1", 1, SLOT))
    slots = [u.slot_id for u in registry.units_of("app1")]
    assert slots == [1, 2]


def test_multiple_units_per_app_with_different_sizes():
    """An application may define units of different shapes (§3.2.2)."""
    registry = UnitRegistry()
    mapper = ScheduleUnit("app1", 1, ResourceVector.of(cpu=50, memory=2048))
    reducer = ScheduleUnit("app1", 2, ResourceVector.of(cpu=200, memory=4096),
                           priority=50)
    registry.define(mapper)
    registry.define(reducer)
    assert registry.get(mapper.key).resources != registry.get(reducer.key).resources
