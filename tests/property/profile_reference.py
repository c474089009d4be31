"""Reference EASY window and conservative profile, for checking the one-pass forms.

:func:`reference_easy_backfill_window` is
:func:`repro.cluster.profile.easy_backfill_window` as it was while the
cluster rebuilt its releases in arbitrary order: it clamps every finish to
``now``, sorts the whole list, finds the first fit and then re-walks the
sorted list up to the shadow.  :func:`reference_breakpoints` is the
matching sort-first construction of a :class:`~repro.cluster.profile.Timeline`.
Both accept releases in any order and share nothing with ``src/``.
"""

from __future__ import annotations

from typing import Sequence

Release = tuple[float, int]


def reference_easy_backfill_window(
    now: float,
    free_procs: int,
    releases: Sequence[Release],
    anchor_procs: int,
    total_procs: int,
) -> tuple[float, int]:
    """``(shadow_time, spare)`` over releases in any order."""
    clamped = sorted((max(f, now), n) for f, n in releases)
    if anchor_procs > total_procs:
        raise ValueError(
            f"job needs {anchor_procs} processors but machine has {total_procs}"
        )
    if anchor_procs <= free_procs:
        shadow = now
    else:
        available = free_procs
        for finish, n in clamped:
            available += n
            if available >= anchor_procs:
                shadow = finish
                break
        else:
            raise ValueError("releases do not add up to the machine size")
    available = free_procs
    for finish, n in clamped:
        if finish > shadow:
            break
        available += n
    return shadow, max(available - anchor_procs, 0)


def reference_breakpoints(
    start: float, free_procs: int, releases: Sequence[Release]
) -> list[tuple[float, int]]:
    """A :class:`Timeline`'s ``(time, free)`` breakpoints, releases in any order."""
    times, frees = [start], [free_procs]
    free = free_procs
    for finish, procs in sorted((max(f, start), n) for f, n in releases):
        free += procs
        if finish == times[-1]:
            frees[-1] = free
        else:
            times.append(finish)
            frees.append(free)
    return list(zip(times, frees))
