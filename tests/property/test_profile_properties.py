"""Property tests of the one-pass EASY window and profile against their references.

The cluster hands :func:`easy_backfill_window` and :class:`Timeline` its
releases in nondecreasing finish order and neither sorts them again.  For
random release multisets — finishes in the past (clamped to ``now``), ties
at one finish, ties with ``now`` itself, anchors that fit now, anchors that
need every release and anchors the machine cannot seat — the one-pass
forms over ``sorted(releases)`` must equal the sort-first references in
``profile_reference.py`` over any permutation of the same releases,
``ValueError`` included.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from profile_reference import reference_breakpoints, reference_easy_backfill_window

from repro.cluster.profile import Timeline, earliest_start_time, easy_backfill_window

NOW = 50.0

#: finishes drawn from a few values (before, at and after ``now``) so ties
#: are common, plus arbitrary floats.
finishes = st.one_of(
    st.sampled_from([0.0, 10.0, NOW, 60.0, 60.0, 100.0]),
    st.floats(0.0, 200.0, allow_nan=False),
)
release_lists = st.lists(st.tuples(finishes, st.integers(1, 8)), max_size=12)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@given(release_lists, st.integers(0, 8), st.integers(0, 4), st.data())
@settings(max_examples=500, deadline=None)
def test_window_matches_sort_based_reference(releases, free, spare_machine, data):
    held = sum(n for _, n in releases)
    # ``spare_machine`` > 0 leaves processors that are neither free nor
    # released (down nodes), so large anchors cannot be seated.
    total = free + held + spare_machine
    anchor = data.draw(
        st.one_of(
            st.integers(1, max(free, 1)),      # fits now (when free > 0)
            st.just(max(free + held, 1)),      # needs every release
            st.integers(1, total + 1),         # anything, even oversized
        ),
        label="anchor",
    )
    shuffled = data.draw(st.permutations(releases), label="order")
    expected = outcome(reference_easy_backfill_window, NOW, free, shuffled, anchor, total)
    got = outcome(easy_backfill_window, NOW, free, sorted(releases), anchor, total)
    assert got == expected
    shadow = outcome(earliest_start_time, NOW, free, shuffled, anchor, total)
    assert shadow == (expected if expected is ValueError else expected[0])


@given(release_lists, st.integers(0, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_timeline_matches_sort_based_reference(releases, free, data):
    shuffled = data.draw(st.permutations(releases), label="order")
    timeline = Timeline(NOW, free, sorted(releases))
    assert timeline.segments() == reference_breakpoints(NOW, free, shuffled)
