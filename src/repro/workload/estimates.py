"""Runtime-estimate inaccuracy model (paper §5.3).

The paper measures "inaccuracy of runtime estimates" relative to the actual
estimates from the trace: 100 % inaccuracy uses the trace estimates
verbatim, 0 % assumes perfectly accurate estimates (estimate == runtime),
and intermediate percentages interpolate linearly.  In the SDSC SP2 subset
only 8 % of estimates are under-estimates; the remaining 92 % over-estimate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.workload.job import Job

#: smallest admissible runtime estimate, seconds.
MIN_ESTIMATE = 1.0


def synthesize_trace_estimates(
    runtimes: np.ndarray,
    rng: np.random.Generator,
    overestimate_fraction: float = 0.92,
    over_sigma: float = 0.9,
    over_mu: float = 0.6,
    under_low: float = 0.2,
    under_high: float = 0.95,
) -> np.ndarray:
    """Synthesise trace-like runtime estimates for given actual runtimes.

    Over-estimating jobs get ``estimate = runtime × (1 + lognormal)`` —
    users request coarse upper bounds, often several times the runtime.
    Under-estimating jobs get ``estimate = runtime × U(under_low,
    under_high)`` — the trace's small population of jobs killed at or past
    their request.
    """
    if not 0.0 <= overestimate_fraction <= 1.0:
        raise ValueError("overestimate_fraction must be within [0, 1]")
    n = len(runtimes)
    over = rng.random(n) < overestimate_fraction
    factors = np.empty(n)
    factors[over] = 1.0 + rng.lognormal(over_mu, over_sigma, size=int(over.sum()))
    factors[~over] = rng.uniform(under_low, under_high, size=int((~over).sum()))
    return np.maximum(runtimes * factors, MIN_ESTIMATE)


def inaccurate_estimates(
    runtimes: Sequence[float],
    trace_estimates: Sequence[float],
    inaccuracy_pct: float,
) -> list[float]:
    """Working estimates for a given inaccuracy percentage, per job:

    ``estimate = runtime + (pct/100) × (trace_estimate − runtime)``,
    floored at :data:`MIN_ESTIMATE`.
    """
    if not 0.0 <= inaccuracy_pct <= 100.0:
        raise ValueError("inaccuracy percentage must be within [0, 100]")
    frac = inaccuracy_pct / 100.0
    return [
        max(MIN_ESTIMATE, runtime + frac * (trace_est - runtime))
        for runtime, trace_est in zip(runtimes, trace_estimates)
    ]


def apply_inaccuracy(jobs: Iterable[Job], inaccuracy_pct: float) -> list[Job]:
    """Set each job's working estimate for a given inaccuracy percentage
    (see :func:`inaccurate_estimates`).

    Returns the same job objects (mutated) as a list, for chaining.
    """
    jobs = list(jobs)
    estimates = inaccurate_estimates(
        [job.runtime for job in jobs],
        [
            job.trace_estimate if job.trace_estimate is not None else job.estimate
            for job in jobs
        ],
        inaccuracy_pct,
    )
    for job, estimate in zip(jobs, estimates):
        job.estimate = estimate
    return jobs


def inaccuracy_statistics(jobs: Sequence[Job]) -> dict:
    """Fractions of over/under/exact estimates and mean |error| ratio."""
    if not jobs:
        return {"n": 0}
    runtimes = np.array([j.runtime for j in jobs])
    estimates = np.array([j.estimate for j in jobs])
    return {
        "n": len(jobs),
        "over_fraction": float(np.mean(estimates > runtimes)),
        "under_fraction": float(np.mean(estimates < runtimes)),
        "exact_fraction": float(np.mean(estimates == runtimes)),
        "mean_abs_error_ratio": float(np.mean(np.abs(estimates - runtimes) / runtimes)),
    }
