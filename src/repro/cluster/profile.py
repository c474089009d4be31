"""Processor availability arithmetic for EASY backfilling.

EASY backfilling (Lifka '95; Mu'alem & Feitelson '01) reserves processors
for the highest-priority waiting job at the *shadow time* — the earliest
instant enough processors are expected free, assuming running jobs end at
their runtime estimates — and lets lower-priority jobs jump ahead only if
they cannot delay that reservation.

These are pure functions over ``(estimated_finish, procs)`` pairs so they
unit-test without a simulator.
"""

from __future__ import annotations

import bisect
from typing import Sequence, Tuple

#: (estimated_finish_time, processors) of one running job.
Release = Tuple[float, int]


def earliest_start_time(
    now: float,
    free_procs: int,
    releases: Sequence[Release],
    procs: int,
    total_procs: int,
) -> float:
    """Earliest time ≥ now when ``procs`` processors are free together.

    ``releases`` lists running jobs as (estimated finish, processors), in
    any order; a finish estimate in the past (an under-estimated job still
    running) is treated as "any moment now", i.e. clamped to ``now``.  This
    is the shadow time of :func:`easy_backfill_window`.
    """
    return easy_backfill_window(now, free_procs, sorted(releases), procs, total_procs)[0]


def easy_backfill_window(
    now: float,
    free_procs: int,
    releases: Sequence[Release],
    anchor_procs: int,
    total_procs: int,
) -> tuple[float, int]:
    """Shadow time and spare processors for the EASY backfill rule.

    Returns ``(shadow_time, spare)``: the anchor (head-of-queue) job is
    guaranteed to start at ``shadow_time``; after seating it then, ``spare``
    processors remain free.  A candidate job with ``p`` processors and
    estimated runtime ``r`` may backfill now iff::

        p <= free_procs  and  (now + r <= shadow_time  or  p <= spare)

    (Mu'alem & Feitelson, IEEE TPDS 12(6), §2.2.)

    ``releases`` must be in nondecreasing finish order, as
    :meth:`SpaceSharedCluster.releases` keeps them.  One pass walks only
    the prefix that matters: releases accumulate until the anchor fits,
    the shadow is that release's finish (a past finish counts as ``now``),
    and the releases due by the shadow join the spare.  The result depends
    only on the running totals at distinct finish times, so the order of
    tied releases, and clamping past finishes to ``now``, cannot change it.
    """
    if anchor_procs > total_procs:
        raise ValueError(
            f"job needs {anchor_procs} processors but machine has {total_procs}"
        )
    available = free_procs
    shadow = now
    pending = iter(releases)
    if available < anchor_procs:
        for finish, n in pending:
            available += n
            if available >= anchor_procs:
                shadow = max(finish, now)
                break
        else:
            raise ValueError(
                "releases do not add up to the machine size: "
                f"free={free_procs} + releases={sum(n for _, n in releases)} "
                f"< procs={anchor_procs}"
            )
    for finish, n in pending:
        if finish > shadow:
            break
        available += n
    return shadow, max(available - anchor_procs, 0)


class Timeline:
    """A piecewise-constant free-processor profile over future time.

    Conservative backfilling plans *every* queued job onto such a profile:
    each job takes the earliest window long enough for its runtime estimate
    with enough free processors throughout, and the reservation is carved
    out of the profile so later (lower-priority) jobs cannot delay it.

    The profile is a sorted list of ``(time, free)`` breakpoints; ``free``
    holds from that breakpoint until the next one (the last lasts forever).
    ``releases`` must be in nondecreasing finish order, as for
    :func:`easy_backfill_window`; past finishes clamp to ``start``, and
    releases at one time merge into one breakpoint.
    """

    def __init__(self, start: float, free_procs: int, releases: Sequence[Release] = ()):
        self.start = float(start)
        self._times: list[float] = [self.start]
        self._free: list[int] = [int(free_procs)]
        free = int(free_procs)
        for finish, procs in releases:
            finish = max(finish, self.start)
            free += procs
            if finish == self._times[-1]:
                self._free[-1] = free
            else:
                self._times.append(finish)
                self._free.append(free)

    def free_at(self, time: float) -> int:
        """Free processors at ``time``."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            raise ValueError(f"time {time} precedes the profile start {self.start}")
        return self._free[idx]

    def _fits(self, start: float, procs: int, duration: float) -> bool:
        end = start + duration
        idx = max(bisect.bisect_right(self._times, start) - 1, 0)
        while True:
            if self._free[idx] < procs:
                return False
            idx += 1
            if idx >= len(self._times) or self._times[idx] >= end:
                return True

    def find_earliest(
        self, procs: int, duration: float, not_before: float | None = None
    ) -> float:
        """Earliest start ≥ ``not_before`` keeping ``procs`` processors free
        throughout ``duration`` seconds."""
        if procs < 1 or duration < 0:
            raise ValueError("need procs >= 1 and duration >= 0")
        t0 = self.start if not_before is None else max(not_before, self.start)
        for cand in [t0] + [t for t in self._times if t > t0]:
            if self._fits(cand, procs, duration):
                return cand
        raise ValueError(
            f"no window of {procs} processors for {duration}s exists in the profile"
        )

    def _insert_breakpoint(self, t: float) -> None:
        if t in self._times:
            return
        pos = bisect.bisect_right(self._times, t)
        value = self._free[max(pos - 1, 0)]
        self._times.insert(pos, t)
        self._free.insert(pos, value)

    def reserve(self, start: float, procs: int, duration: float) -> None:
        """Carve ``procs`` processors out of [start, start + duration)."""
        end = start + duration
        self._insert_breakpoint(start)
        if duration > 0:
            self._insert_breakpoint(end)
        for i, t in enumerate(self._times):
            if start <= t < end:
                self._free[i] -= procs
                if self._free[i] < 0:
                    raise ValueError("reservation exceeds available processors")

    def segments(self) -> list[tuple[float, int]]:
        """The (time, free) breakpoints (for tests and debugging)."""
        return list(zip(self._times, self._free))


def can_backfill(
    now: float,
    free_procs: int,
    procs: int,
    est_runtime: float,
    shadow_time: float,
    spare: int,
) -> bool:
    """The EASY backfill admission rule for one candidate job."""
    if procs > free_procs:
        return False
    return now + est_runtime <= shadow_time or procs <= spare
