"""Unit tests for the EASY backfilling availability arithmetic."""

import pytest

from repro.cluster.profile import can_backfill, earliest_start_time, easy_backfill_window


def test_fits_now():
    assert earliest_start_time(0.0, free_procs=8, releases=[], procs=4, total_procs=8) == 0.0


def test_waits_for_single_release():
    t = earliest_start_time(0.0, 2, [(100.0, 4)], procs=6, total_procs=8)
    assert t == 100.0


def test_accumulates_releases_in_finish_order():
    releases = [(300.0, 2), (100.0, 2), (200.0, 2)]
    assert earliest_start_time(0.0, 0, releases, procs=4, total_procs=8) == 200.0
    assert earliest_start_time(0.0, 0, releases, procs=6, total_procs=8) == 300.0


def test_past_estimates_clamp_to_now():
    # A running job past its estimate counts as releasing "now".
    t = earliest_start_time(50.0, 0, [(10.0, 4)], procs=4, total_procs=8)
    assert t == 50.0


def test_oversized_job_raises():
    with pytest.raises(ValueError):
        earliest_start_time(0.0, 8, [], procs=9, total_procs=8)


def test_inconsistent_releases_raise():
    with pytest.raises(ValueError):
        earliest_start_time(0.0, 0, [(10.0, 2)], procs=4, total_procs=8)


def test_window_anchor_fits_now():
    shadow, spare = easy_backfill_window(0.0, 8, [], anchor_procs=4, total_procs=8)
    assert shadow == 0.0
    assert spare == 4


def test_window_shadow_and_spare():
    # 8 procs, 2 free; jobs release 4 @100 and 2 @200. Anchor needs 6.
    releases = [(100.0, 4), (200.0, 2)]
    shadow, spare = easy_backfill_window(0.0, 2, releases, anchor_procs=6, total_procs=8)
    assert shadow == 100.0
    assert spare == 0  # 2 + 4 available at shadow, anchor takes 6


def test_window_spare_counts_extra_at_shadow():
    releases = [(100.0, 6)]
    shadow, spare = easy_backfill_window(0.0, 2, releases, anchor_procs=4, total_procs=8)
    assert shadow == 100.0
    assert spare == 4  # 8 free at shadow minus 4 anchor


def test_window_spare_counts_every_tie_at_shadow():
    # Three releases at the shadow: all of them join the spare.
    releases = [(100.0, 2), (100.0, 2), (100.0, 2), (200.0, 8)]
    shadow, spare = easy_backfill_window(0.0, 0, releases, anchor_procs=2, total_procs=16)
    assert shadow == 100.0
    assert spare == 4


def test_backfill_rule_short_job_before_shadow():
    # Candidate finishing before the shadow can use any free processor.
    assert can_backfill(0.0, free_procs=2, procs=2, est_runtime=50.0, shadow_time=100.0, spare=0)
    assert not can_backfill(0.0, 2, 2, est_runtime=150.0, shadow_time=100.0, spare=0)


def test_backfill_rule_spare_processors():
    # A long candidate may run iff it fits in the spare set.
    assert can_backfill(0.0, 4, 3, est_runtime=1e9, shadow_time=100.0, spare=3)
    assert not can_backfill(0.0, 4, 4, est_runtime=1e9, shadow_time=100.0, spare=3)


def test_backfill_rule_needs_free_procs_now():
    assert not can_backfill(0.0, 1, 2, est_runtime=1.0, shadow_time=100.0, spare=8)
