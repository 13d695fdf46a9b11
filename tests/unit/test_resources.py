"""Unit + property tests for the multi-dimensional resource vector."""

import pytest
from hypothesis import given, strategies as st

from repro.core.resources import CPU, MEMORY, ResourceVector, total_of

DIMS = ["CPU", "Memory", "ASortResource", "disk"]


def vectors():
    return st.builds(
        ResourceVector,
        st.dictionaries(st.sampled_from(DIMS),
                        st.floats(min_value=0, max_value=1e6,
                                  allow_nan=False), max_size=4))


# --------------------------- construction --------------------------- #

def test_of_constructor():
    v = ResourceVector.of(cpu=100, memory=1024, ASortResource=1)
    assert v.cpu == 100
    assert v.memory == 1024
    assert v.get("ASortResource") == 1


def test_zero_dimensions_dropped():
    v = ResourceVector({"CPU": 0.0, "Memory": 5.0})
    assert v.dimensions() == ("Memory",)


def test_negative_amount_rejected():
    with pytest.raises(ValueError):
        ResourceVector({"CPU": -1.0})


def test_zero_vector_is_falsy():
    assert not ResourceVector()
    assert ResourceVector().is_zero()
    assert ResourceVector.of(cpu=1)


# --------------------------- algebra -------------------------------- #

def test_addition_merges_dimensions():
    v = ResourceVector.of(cpu=100) + ResourceVector.of(memory=512)
    assert v == ResourceVector.of(cpu=100, memory=512)


def test_subtraction():
    v = ResourceVector.of(cpu=100, memory=1024) - ResourceVector.of(cpu=40)
    assert v == ResourceVector.of(cpu=60, memory=1024)


def test_subtraction_to_zero_drops_dimension():
    v = ResourceVector.of(cpu=100) - ResourceVector.of(cpu=100)
    assert v.is_zero()


def test_subtraction_below_zero_raises():
    with pytest.raises(ValueError):
        ResourceVector.of(cpu=10) - ResourceVector.of(cpu=20)


def test_monus_clamps():
    v = ResourceVector.of(cpu=10, memory=100).monus(
        ResourceVector.of(cpu=20, memory=30))
    assert v == ResourceVector.of(memory=70)


def test_scalar_multiplication():
    assert ResourceVector.of(cpu=50) * 3 == ResourceVector.of(cpu=150)
    assert 2 * ResourceVector.of(memory=10) == ResourceVector.of(memory=20)


def test_multiplication_by_zero_gives_zero_vector():
    assert (ResourceVector.of(cpu=50) * 0).is_zero()


def test_negative_factor_rejected():
    with pytest.raises(ValueError):
        ResourceVector.of(cpu=1) * -1


# --------------------------- comparisons ---------------------------- #

def test_fits_in_requires_all_dimensions():
    supply = ResourceVector.of(cpu=100, memory=1000)
    assert ResourceVector.of(cpu=50, memory=500).fits_in(supply)
    assert not ResourceVector.of(cpu=150, memory=500).fits_in(supply)
    assert not ResourceVector.of(cpu=50, memory=500, gpu=1).fits_in(supply)


def test_zero_fits_anywhere():
    assert ResourceVector().fits_in(ResourceVector())


def test_max_units_in():
    supply = ResourceVector.of(cpu=100, memory=1000)
    unit = ResourceVector.of(cpu=30, memory=200)
    assert unit.max_units_in(supply) == 3   # cpu-limited


def test_max_units_in_zero_supply():
    assert ResourceVector.of(cpu=1).max_units_in(ResourceVector()) == 0


def test_max_units_zero_vector_is_huge():
    assert ResourceVector().max_units_in(ResourceVector()) == 10 ** 9


def test_equality_and_hash():
    a = ResourceVector.of(cpu=100, memory=1024)
    b = ResourceVector({"Memory": 1024, "CPU": 100})
    assert a == b
    assert hash(a) == hash(b)


def test_total_of():
    vectors_list = [ResourceVector.of(cpu=1), ResourceVector.of(cpu=2, memory=3)]
    assert total_of(vectors_list) == ResourceVector.of(cpu=3, memory=3)
    assert total_of([]).is_zero()


# --------------------------- properties ----------------------------- #

@given(vectors(), vectors())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(vectors(), vectors(), vectors())
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(vectors(), vectors())
def test_add_then_subtract_roundtrips(a, b):
    assert (a + b) - b == a


@given(vectors(), vectors())
def test_monus_never_negative(a, b):
    result = a.monus(b)
    assert all(amount >= 0 for _, amount in result.items())


@given(vectors(), vectors())
def test_monus_fits_in_original(a, b):
    assert a.monus(b).fits_in(a)


@given(vectors(), vectors())
def test_fits_in_iff_max_units_positive(a, b):
    if a.is_zero():
        return
    assert a.fits_in(b) == (a.max_units_in(b) >= 1)


@given(vectors())
def test_zero_is_additive_identity(a):
    assert a + ResourceVector() == a


@given(vectors(), st.integers(min_value=0, max_value=100))
def test_scalar_multiplication_is_repeated_addition(a, n):
    expected = total_of([a] * n)
    assert a * n == expected
