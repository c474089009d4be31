"""Unit tests for the conservative-backfilling availability timeline."""

import pytest

from repro.cluster.profile import Timeline


def test_empty_profile_is_flat():
    t = Timeline(0.0, 8)
    assert t.free_at(0.0) == 8
    assert t.free_at(1e9) == 8
    assert t.segments() == [(0.0, 8)]


def test_releases_build_staircase():
    # Releases come in finish order, as SpaceSharedCluster.releases() keeps them.
    t = Timeline(0.0, 2, [(50.0, 2), (100.0, 4)])
    assert t.free_at(0.0) == 2
    assert t.free_at(50.0) == 4
    assert t.free_at(99.0) == 4
    assert t.free_at(100.0) == 8


def test_past_releases_clamp_to_start():
    t = Timeline(50.0, 0, [(10.0, 8)])
    assert t.free_at(50.0) == 8


def test_simultaneous_releases_merge():
    t = Timeline(0.0, 0, [(10.0, 2), (10.0, 3)])
    assert t.free_at(10.0) == 5
    assert len(t.segments()) == 2


def test_find_earliest_immediate():
    t = Timeline(0.0, 8)
    assert t.find_earliest(4, 100.0) == 0.0


def test_find_earliest_waits_for_capacity():
    t = Timeline(0.0, 2, [(100.0, 4)])
    assert t.find_earliest(4, 50.0) == 100.0


def test_find_earliest_needs_whole_window():
    # 4 procs free only until t=30 (reservation), so a 50s job must wait.
    t = Timeline(0.0, 4)
    t.reserve(30.0, 4, 20.0)   # [30, 50) fully busy
    assert t.find_earliest(4, 50.0) == 50.0
    assert t.find_earliest(4, 30.0) == 0.0  # fits exactly before


def test_reserve_carves_capacity():
    t = Timeline(0.0, 8)
    t.reserve(10.0, 3, 20.0)
    assert t.free_at(5.0) == 8
    assert t.free_at(10.0) == 5
    assert t.free_at(29.0) == 5
    assert t.free_at(30.0) == 8


def test_reserve_overflow_raises():
    t = Timeline(0.0, 4)
    t.reserve(0.0, 4, 10.0)
    with pytest.raises(ValueError):
        t.reserve(5.0, 1, 1.0)


def test_stacked_reservations():
    t = Timeline(0.0, 8)
    t.reserve(0.0, 4, 10.0)
    t.reserve(5.0, 4, 10.0)
    assert t.free_at(0.0) == 4
    assert t.free_at(5.0) == 0
    assert t.free_at(10.0) == 4
    assert t.free_at(15.0) == 8


def test_find_respects_not_before():
    t = Timeline(0.0, 8)
    assert t.find_earliest(2, 10.0, not_before=42.0) == 42.0


def test_invalid_requests():
    t = Timeline(0.0, 8)
    with pytest.raises(ValueError):
        t.find_earliest(0, 10.0)
    with pytest.raises(ValueError):
        t.find_earliest(2, -1.0)
    with pytest.raises(ValueError):
        t.free_at(-1.0)
