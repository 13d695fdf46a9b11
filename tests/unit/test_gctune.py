"""Unit tests for the GC isolation helpers."""

import gc

import pytest

from repro.sim.gctune import collect_young, deferred_gc, paused_gc


def test_paused_gc_pauses_then_restores():
    assert gc.isenabled()
    with paused_gc():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_paused_gc_restores_on_exception():
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("boom")
    assert gc.isenabled()


def test_paused_gc_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_paused_gc_nests_and_decorates():
    @paused_gc()
    def inner():
        return gc.isenabled()

    with paused_gc():
        assert inner() is False
        assert not gc.isenabled()
    assert inner() is False
    assert gc.isenabled()


def test_paused_gc_freezes_nothing():
    """A build that is dropped unrun must stay collectable."""
    frozen = gc.get_freeze_count()
    with paused_gc():
        cycle = []
        cycle.append(cycle)
    assert gc.get_freeze_count() == frozen


def test_deferred_gc_disables_then_restores():
    assert gc.isenabled()
    with deferred_gc():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_deferred_gc_restores_on_exception():
    try:
        with deferred_gc():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert gc.isenabled()


def test_deferred_gc_noop_when_disabled():
    with deferred_gc(enabled=False):
        assert gc.isenabled()
    assert gc.isenabled()


def test_deferred_gc_respects_prior_disabled_state():
    gc.disable()
    try:
        with deferred_gc():
            assert not gc.isenabled()
        # it was off before the block: stay off
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_collect_young_runs_inside_deferred_block():
    with deferred_gc():
        # must not raise, and must not re-enable automatic collection
        collect_young()
        assert not gc.isenabled()
