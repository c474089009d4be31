"""Lublin–Feitelson workload model (JPDC 63(11), 2003).

The de-facto standard statistical model of rigid parallel jobs, provided as
an alternative to the trace-calibrated lognormal generator in
:mod:`repro.workload.synthetic`.  Three components, with the paper's
published default parameters:

- **Job size** — a fraction of jobs is serial; parallel sizes follow a
  two-stage log₂-uniform distribution with strong power-of-two rounding.
- **Runtime** — a hyper-gamma distribution: two gamma components whose
  mixing probability depends linearly on the job size (bigger jobs lean to
  the long component).
- **Arrivals** — gamma-distributed inter-arrival *slots* modulated by a
  daily cycle: the arrival rate follows a smooth day/night weight curve so
  load peaks in working hours.

The model returns ordinary :class:`repro.workload.job.Job` objects, so it
drops into every pipeline (QoS synthesis, estimate inaccuracy, policies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.workload.estimates import synthesize_trace_estimates
from repro.workload.job import Job

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class LublinModel:
    """Parameters of the Lublin–Feitelson model (batch-job defaults)."""

    n_jobs: int = 1000
    max_procs: int = 128

    # -- job size ------------------------------------------------------------
    #: probability that a job is serial.
    prob_serial: float = 0.24
    #: probability a parallel size is drawn from the power-of-two stage.
    prob_pow2: float = 0.75
    #: log2 size distribution: uniform over [ulow, uhigh] with a medium
    #: emphasis point umed (two-stage uniform).
    ulow: float = 0.8
    umed: float = 4.5
    uprob: float = 0.86

    # -- runtime (hyper-gamma, parameters from the paper's Table) -------------
    g1_shape: float = 4.2
    g1_scale: float = 0.94   # "short" component (log-seconds-ish scale)
    g2_shape: float = 312.0
    g2_scale: float = 0.03
    #: mixing: p(long component) = pa * size + pb, clamped to [0, 1].
    pa: float = -0.0054
    pb: float = 0.78

    # -- arrivals --------------------------------------------------------------
    #: gamma inter-arrival parameters (seconds scale chosen to land near the
    #: SDSC SP2 mean when the cycle is flat).
    arrival_shape: float = 1.0
    arrival_scale: float = 1969.0
    #: relative arrival weight per hour of day (smooth working-day cycle).
    cycle_amplitude: float = 0.8
    cycle_peak_hour: float = 14.0

    min_runtime: float = 30.0
    max_runtime: float = 2.0 * 86400.0
    overestimate_fraction: float = 0.92

    def uhigh(self) -> float:
        """Upper bound of the log2 size distribution (machine size)."""
        return math.log2(self.max_procs)


def _two_stage_uniform(
    rng: np.random.Generator, low: float, med: float, high: float, prob: float, size: int
) -> np.ndarray:
    """Lublin's two-stage uniform: with probability ``prob`` draw from
    [low, med], else from [med, high]."""
    stage1 = rng.random(size) < prob
    out = np.empty(size)
    out[stage1] = rng.uniform(low, med, size=int(stage1.sum()))
    out[~stage1] = rng.uniform(med, high, size=int((~stage1).sum()))
    return out


def sample_sizes(rng: np.random.Generator, model: LublinModel, n: int) -> np.ndarray:
    """Processor counts: serial fraction + two-stage log2-uniform parallel
    sizes with power-of-two rounding."""
    serial = rng.random(n) < model.prob_serial
    log_sizes = _two_stage_uniform(
        rng, model.ulow, model.umed, model.uhigh(), model.uprob, n
    )
    sizes = np.exp2(log_sizes)
    pow2 = rng.random(n) < model.prob_pow2
    sizes[pow2] = np.exp2(np.round(log_sizes[pow2]))
    sizes = np.clip(np.rint(sizes), 1, model.max_procs)
    sizes[serial] = 1
    return sizes.astype(np.int64)


def sample_runtimes(
    rng: np.random.Generator, model: LublinModel, sizes: np.ndarray
) -> np.ndarray:
    """Hyper-gamma runtimes whose long-component probability shrinks with
    job size (the published linear coupling)."""
    n = len(sizes)
    p_long = np.clip(model.pa * sizes + model.pb, 0.0, 1.0)
    use_long = rng.random(n) < p_long
    # The model works in log-runtime space: exp(gamma) gives seconds.
    log_rt = np.where(
        use_long,
        rng.gamma(model.g2_shape, model.g2_scale, size=n),
        rng.gamma(model.g1_shape, model.g1_scale, size=n),
    )
    runtimes = np.exp(log_rt)
    return np.clip(runtimes, model.min_runtime, model.max_runtime)


def daily_cycle_weight(hour_of_day: np.ndarray, model: LublinModel) -> np.ndarray:
    """Relative arrival intensity at each hour (1 ± amplitude, cosine)."""
    phase = 2.0 * np.pi * (hour_of_day - model.cycle_peak_hour) / 24.0
    return 1.0 + model.cycle_amplitude * np.cos(phase)


def _advance_arrivals(
    rng: np.random.Generator, model: LublinModel, n: int, t_start: float
) -> np.ndarray:
    """Absolute submit times for ``n`` arrivals continuing from ``t_start``.

    The daily-cycle modulation depends on the running clock, so chunked
    generation (:func:`iter_lublin_chunks`) threads ``t_start`` between
    chunks instead of restarting the cycle.
    """
    gaps = rng.gamma(model.arrival_shape, model.arrival_scale, size=n)
    submits = np.empty(n)
    t = t_start
    for i in range(n):
        hour = (t / SECONDS_PER_HOUR) % 24.0
        weight = 1.0 + model.cycle_amplitude * math.cos(
            2.0 * math.pi * (hour - model.cycle_peak_hour) / 24.0
        )
        # Higher weight => arrivals come faster => shorter effective gap.
        t += gaps[i] / max(weight, 1e-3)
        submits[i] = t
    return submits


def generate_lublin_trace(
    model: LublinModel = LublinModel(),
    rng: np.random.Generator | int | None = None,
) -> list[Job]:
    """Generate a Lublin–Feitelson workload as a list of jobs: the one
    chunk of :func:`iter_lublin_chunks` that holds every job."""
    return next(iter_lublin_chunks(model, rng, chunk_size=model.n_jobs))


def iter_lublin_chunks(
    model: LublinModel = LublinModel(),
    rng: np.random.Generator | int | None = None,
    chunk_size: int = 8192,
) -> "Iterator[list[Job]]":
    """Generate the model's ``n_jobs`` jobs lazily, one chunk at a time.

    Peak memory is O(``chunk_size``) instead of O(``n_jobs``), which is
    what lets 10⁶-job streams drive the marketplace without materialising
    a trace.  Each chunk samples sizes → runtimes → arrivals → estimates;
    the arrival clock and the t=0 normalisation carry across chunks, so
    the distribution is the model's regardless of chunking.  The concrete
    sequence depends on ``chunk_size``: with ``chunk_size >= n_jobs`` the
    one chunk is :func:`generate_lublin_trace`'s trace.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    if model.n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    remaining = model.n_jobs
    next_id = 1
    t_clock = 0.0
    offset: float | None = None
    while remaining > 0:
        n = min(chunk_size, remaining)
        sizes = sample_sizes(rng, model, n)
        runtimes = sample_runtimes(rng, model, sizes)
        submits = _advance_arrivals(rng, model, n, t_clock)
        t_clock = float(submits[-1])
        if offset is None:
            offset = float(submits[0])
        estimates = synthesize_trace_estimates(
            runtimes, rng, overestimate_fraction=model.overestimate_fraction
        )
        yield [
            Job(
                job_id=next_id + i,
                submit_time=float(submits[i]) - offset,
                runtime=float(runtimes[i]),
                estimate=float(estimates[i]),
                procs=int(sizes[i]),
                trace_estimate=float(estimates[i]),
            )
            for i in range(n)
        ]
        next_id += n
        remaining -= n
