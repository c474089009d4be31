"""Workload cleaning and shaping filters.

Archive traces need cleaning before simulation studies (Feitelson's archive
documents flurries, down-times, and anomalous users); and experiments need
load shaping (the paper's arrival-delay factor).  Every filter here is
pure — it returns a new list and never mutates job order semantics — so
filters compose: ``take_last(remove_flurries(jobs), 5000)``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.workload.job import Job


def take_last(jobs: Sequence[Job], n: int, rebase: bool = True) -> list[Job]:
    """The last ``n`` jobs by submit time (the paper's subset selection),
    optionally rebased so the first kept job arrives at t = 0."""
    if n < 0:
        raise ValueError("n cannot be negative")
    kept = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))[-n:] if n else []
    if rebase and kept:
        t0 = kept[0].submit_time
        for job in kept:
            job.submit_time -= t0
    return kept


def filter_by_procs(jobs: Iterable[Job], max_procs: int) -> list[Job]:
    """Drop jobs wider than the simulated machine (instead of clamping)."""
    if max_procs < 1:
        raise ValueError("max_procs must be at least 1")
    return [j for j in jobs if j.procs <= max_procs]


def filter_span(
    jobs: Iterable[Job], start: float = 0.0, end: float = float("inf")
) -> list[Job]:
    """Jobs submitted within [start, end)."""
    if end < start:
        raise ValueError("span end precedes start")
    return [j for j in jobs if start <= j.submit_time < end]


def remove_flurries(
    jobs: Sequence[Job],
    max_burst: int = 20,
    window: float = 3600.0,
) -> list[Job]:
    """Drop flurry jobs: per user, any submission beyond ``max_burst`` jobs
    within ``window`` seconds is removed (the archive's standard cleaning;
    flurries are single-user automation bursts that distort statistics).

    Jobs without a ``user_id`` in :attr:`Job.extra` are kept as-is.
    """
    if max_burst < 1:
        raise ValueError("max_burst must be at least 1")
    if window <= 0:
        raise ValueError("window must be positive")
    recent: dict[int, deque] = defaultdict(deque)
    kept: list[Job] = []
    for job in sorted(jobs, key=lambda j: (j.submit_time, j.job_id)):
        user = job.extra.get("user_id")
        if user is None:
            kept.append(job)
            continue
        q = recent[user]
        while q and q[0] <= job.submit_time - window:
            q.popleft()
        if len(q) < max_burst:
            q.append(job.submit_time)
            kept.append(job)
    return kept


def cap_estimates(jobs: Iterable[Job], cap: float) -> list[Job]:
    """Clamp runtime estimates to a queue limit (mutates estimates)."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    out = []
    for job in jobs:
        job.estimate = min(job.estimate, cap)
        job.trace_estimate = min(job.trace_estimate, cap)
        out.append(job)
    return out


def scale_load(jobs: Iterable[Job], arrival_delay_factor: float) -> list[Job]:
    """The paper's load knob as a standalone filter: multiply every
    inter-arrival gap (equivalently, every submit time) by the factor —
    a factor below 1 compresses arrivals, i.e. raises load."""
    if arrival_delay_factor <= 0:
        raise ValueError("arrival delay factor must be positive")
    out = []
    for job in jobs:
        job.submit_time *= arrival_delay_factor
        out.append(job)
    return out


@dataclass(frozen=True)
class LoadProfile:
    """Offered-load summary of a workload against a machine size."""

    demand_ratio: float       # processor-seconds demanded / offered
    peak_concurrency: int     # max simultaneously demanded processors
    span_seconds: float


def offered_load(jobs: Sequence[Job], total_procs: int) -> LoadProfile:
    """Offered load if every job ran exactly on submission.

    ``demand_ratio`` above 1 means the machine cannot serve everything —
    the regime the paper's heavy-load scenarios live in.
    """
    if total_procs < 1:
        raise ValueError("total_procs must be at least 1")
    if not jobs:
        return LoadProfile(0.0, 0, 0.0)
    events: list[tuple[float, int]] = []
    work = 0.0
    t_min, t_max = float("inf"), 0.0
    for job in jobs:
        start, end = job.submit_time, job.submit_time + job.runtime
        events.append((start, job.procs))
        events.append((end, -job.procs))
        work += job.work
        t_min = min(t_min, start)
        t_max = max(t_max, end)
    events.sort()
    concurrency = peak = 0
    for _, delta in events:
        concurrency += delta
        peak = max(peak, concurrency)
    span = max(t_max - t_min, 1e-9)
    return LoadProfile(
        demand_ratio=work / (total_procs * span),
        peak_concurrency=peak,
        span_seconds=span,
    )
