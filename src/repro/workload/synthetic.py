"""Calibrated synthetic parallel-workload generator.

The paper simulates the last 5000 jobs of the SDSC SP2 trace (Parallel
Workloads Archive, v2.2).  That file cannot ship with this repository, so
:func:`generate_trace` synthesises a statistically similar workload from the
summary statistics the paper publishes:

- 5000 jobs, mean inter-arrival 1969 s, mean runtime 8671 s,
- mean 17 processors per job on a 128-node machine,
- user runtime estimates: 92 % over-estimated, 8 % under-estimated.

Inter-arrivals and runtimes are lognormal (the standard heavy-tailed choice
for supercomputer workloads); processor counts follow a log-uniform
distribution with power-of-two clustering, as observed across archive traces.
A real SWF file parsed with :func:`repro.workload.swf.parse_swf` is a drop-in
replacement everywhere a job list is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from repro.workload.estimates import synthesize_trace_estimates
from repro.workload.job import Job


@dataclass(frozen=True)
class TraceModel:
    """Statistical model of a parallel workload.

    ``*_sigma_log`` are the log-space standard deviations of the lognormal
    distributions; means are matched exactly via ``mu = ln(mean) - sigma²/2``.
    """

    n_jobs: int = 5000
    mean_interarrival: float = 1969.0
    interarrival_sigma_log: float = 1.2
    mean_runtime: float = 8671.0
    runtime_sigma_log: float = 1.6
    max_procs: int = 128
    #: upper bound of the log2-uniform processor-count draw; 6.2 calibrates
    #: the mean to ~17 processors for a 128-node machine.
    proc_exponent_max: float = 6.2
    #: fraction of jobs whose processor count snaps to a power of two.
    power_of_two_fraction: float = 0.8
    min_runtime: float = 30.0
    #: fraction of trace runtime estimates that over-estimate (SDSC SP2: 92%).
    overestimate_fraction: float = 0.92
    #: size of the user population; activity is Zipf-distributed (a few
    #: heavy users dominate, as in every archive trace).  0 disables ids.
    n_users: int = 64
    user_zipf_a: float = 1.4

    def scaled(self, n_jobs: int) -> "TraceModel":
        """The same model with a different job count (for reduced-scale
        benchmark runs)."""
        return replace(self, n_jobs=int(n_jobs))


#: Model of the last 5000 jobs of the SDSC SP2 trace (paper §5.3).
SDSC_SP2 = TraceModel()


def _lognormal_with_mean(
    rng: np.random.Generator, mean: float, sigma_log: float, size: int
) -> np.ndarray:
    """Lognormal samples whose *distribution* mean equals ``mean``."""
    mu = math.log(mean) - 0.5 * sigma_log**2
    return rng.lognormal(mean=mu, sigma=sigma_log, size=size)


def _processor_counts(rng: np.random.Generator, model: TraceModel, size: int) -> np.ndarray:
    exponents = rng.uniform(0.0, model.proc_exponent_max, size=size)
    procs = np.exp2(exponents)
    snap = rng.random(size) < model.power_of_two_fraction
    procs[snap] = np.exp2(np.round(exponents[snap]))
    procs = np.clip(np.rint(procs), 1, model.max_procs)
    return procs.astype(np.int64)


class TraceColumns(NamedTuple):
    """A synthetic trace as columns of builtin values, one entry per job
    in submit order (job ``i + 1`` is entry ``i``).

    What :func:`generate_trace` turns into :class:`Job` records, and what
    :func:`repro.experiments.runner.build_workload` memoises and builds
    its job lists from without first building and cloning a base trace.
    """

    submit_times: list[float]
    runtimes: list[float]
    trace_estimates: list[float]
    procs: list[int]
    #: per-job user ids, or ``None`` when the model has no user population.
    user_ids: Optional[list[int]]


def trace_columns(
    model: TraceModel = SDSC_SP2,
    rng: np.random.Generator | int | None = None,
) -> TraceColumns:
    """Draw a synthetic trace as columns (see :func:`generate_trace`).

    Each numpy column is converted once with ``tolist``, which yields the
    same builtin floats and ints as ``float(a[i])`` / ``int(a[i])``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    n = model.n_jobs
    if n <= 0:
        raise ValueError("n_jobs must be positive")

    interarrivals = _lognormal_with_mean(
        rng, model.mean_interarrival, model.interarrival_sigma_log, n
    )
    submits = np.concatenate(([0.0], np.cumsum(interarrivals[:-1])))
    runtimes = np.maximum(
        _lognormal_with_mean(rng, model.mean_runtime, model.runtime_sigma_log, n),
        model.min_runtime,
    )
    procs = _processor_counts(rng, model, n)
    trace_estimates = synthesize_trace_estimates(
        runtimes, rng, overestimate_fraction=model.overestimate_fraction
    )
    if model.n_users > 0:
        users = ((rng.zipf(model.user_zipf_a, size=n) - 1) % model.n_users).tolist()
    else:
        users = None
    return TraceColumns(
        submits.tolist(), runtimes.tolist(), trace_estimates.tolist(),
        procs.tolist(), users,
    )


def generate_trace(
    model: TraceModel = SDSC_SP2,
    rng: np.random.Generator | int | None = None,
) -> list[Job]:
    """Generate a synthetic job trace.

    Parameters
    ----------
    model:
        Statistical workload model (default: :data:`SDSC_SP2`).
    rng:
        A :class:`numpy.random.Generator`, an integer seed, or ``None``
        (seed 0).  Runs are fully deterministic for a given seed.

    Returns
    -------
    list[Job]
        Jobs sorted by submit time, first arrival at t=0.  ``estimate``
        starts equal to ``trace_estimate`` (i.e. 100 % trace inaccuracy);
        apply :func:`repro.workload.estimates.apply_inaccuracy` to sweep it.
    """
    columns = trace_columns(model, rng)
    jobs = [
        Job(i, submit, runtime, estimate, procs, trace_estimate=estimate)
        for i, submit, runtime, estimate, procs in zip(
            range(1, len(columns.runtimes) + 1), columns.submit_times,
            columns.runtimes, columns.trace_estimates, columns.procs,
        )
    ]
    if columns.user_ids is not None:
        for job, user in zip(jobs, columns.user_ids):
            job.extra["user_id"] = user
    return jobs


def trace_statistics(jobs: list[Job]) -> dict:
    """Summary statistics of a job list (for calibration tests/reports)."""
    if not jobs:
        return {"n_jobs": 0}
    submits = np.array([j.submit_time for j in jobs])
    runtimes = np.array([j.runtime for j in jobs])
    procs = np.array([j.procs for j in jobs])
    estimates = np.array([j.trace_estimate for j in jobs])
    inter = np.diff(np.sort(submits))
    over = float(np.mean(estimates > runtimes))
    return {
        "n_jobs": len(jobs),
        "mean_interarrival": float(inter.mean()) if len(inter) else 0.0,
        "mean_runtime": float(runtimes.mean()),
        "mean_procs": float(procs.mean()),
        "max_procs": int(procs.max()),
        "overestimate_fraction": over,
        "span_seconds": float(submits.max() - submits.min()),
    }
