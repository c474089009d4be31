"""SLA / QoS parameter synthesis (paper §5.3).

The SDSC SP2 trace has no deadlines, budgets, or penalty rates, so the paper
synthesises them with the two-class methodology of Irwin et al. (HPDC'04):

- each job is *high urgency* (probability = job-mix percentage) or *low
  urgency*;
- a job's deadline is ``d_i = dfactor_i × tr_i`` where ``dfactor`` is normally
  distributed around the class mean — high-urgency jobs draw from the **low**
  ``d/tr`` mean, low-urgency jobs from the **high** mean = ``ratio × low``;
- budget: ``b_i = bfactor_i × f(tr_i)`` with ``f(tr) = tr × PBase`` (budget
  scales with the work requested); high-urgency jobs draw the **high**
  ``b/f(tr)`` mean = ``ratio × low``;
- penalty rate: ``pr_i = pfactor_i × g(tr_i)`` with ``g(tr_i) = b_i / d_i``
  (a delay of ``d_i / pfactor_i`` seconds forfeits the full budget);
  high-urgency jobs draw the **high** mean;
- *bias* counteracts the proportionality to runtime: a job longer than the
  average runtime has its deadline, budget, and penalty divided by the bias,
  a shorter job has them multiplied by it.

The exact distributions (the paper says only "normally distributed") use a
coefficient of variation of 0.2, truncated at small positive floors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from repro.workload.job import Job, Urgency


@dataclass(frozen=True)
class QoSParameter:
    """Synthesis knobs for one SLA parameter (deadline, budget, or penalty).

    ``low_mean`` is the low-value mean of Table VI; the high-value mean is
    ``high_low_ratio × low_mean``.  ``bias`` is the runtime bias of §5.3.
    """

    low_mean: float = 4.0
    high_low_ratio: float = 4.0
    bias: float = 2.0
    cv: float = 0.2

    def high_mean(self) -> float:
        return self.high_low_ratio * self.low_mean


@dataclass(frozen=True)
class QoSSpec:
    """Complete QoS synthesis configuration (one experiment setting)."""

    pct_high_urgency: float = 20.0
    deadline: QoSParameter = field(default_factory=QoSParameter)
    budget: QoSParameter = field(default_factory=QoSParameter)
    penalty: QoSParameter = field(default_factory=QoSParameter)
    #: base price per processor-second; budgets are denominated in it.
    pbase: float = 1.0
    #: floor for the deadline factor d/tr — a deadline below the runtime
    #: estimate is unfulfillable by construction.
    min_deadline_factor: float = 1.05

    def with_values(self, **kwargs) -> "QoSSpec":
        """A copy with some fields replaced (scenario sweeps)."""
        return replace(self, **kwargs)


def _truncated_normal(
    rng: np.random.Generator, mean: np.ndarray, cv: float, floor: float
) -> np.ndarray:
    draws = rng.normal(loc=mean, scale=cv * mean)
    return np.maximum(draws, floor)


class QoSColumns(NamedTuple):
    """Drawn SLA parameters, one builtin entry per job (see :func:`draw_qos`)."""

    high_urgency: list[bool]
    deadlines: list[float]
    budgets: list[float]
    penalty_rates: list[float]


def draw_qos(
    runtimes: Sequence[float],
    spec: QoSSpec,
    rng: np.random.Generator | int | None = None,
) -> QoSColumns:
    """Draw urgency, deadline, budget and penalty rate for jobs with the
    given runtimes, as columns; :func:`assign_qos` sets them on jobs.

    Each numpy column is converted once with ``tolist``, which yields the
    same builtin values as converting it element by element.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(0 if rng is None else rng)
    if not 0.0 <= spec.pct_high_urgency <= 100.0:
        raise ValueError("pct_high_urgency must be within [0, 100]")

    n = len(runtimes)
    if n == 0:
        return QoSColumns([], [], [], [])
    runtimes = np.array(runtimes)
    mean_runtime = float(runtimes.mean())
    high = rng.random(n) < spec.pct_high_urgency / 100.0

    # Deadline: high urgency => LOW d/tr mean (tight); low urgency => HIGH.
    d_means = np.where(high, spec.deadline.low_mean, spec.deadline.high_mean())
    d_factors = _truncated_normal(rng, d_means, spec.deadline.cv, spec.min_deadline_factor)

    # Budget: high urgency => HIGH b/f(tr) mean; low urgency => LOW.
    b_means = np.where(high, spec.budget.high_mean(), spec.budget.low_mean)
    b_factors = _truncated_normal(rng, b_means, spec.budget.cv, 0.05)

    # Penalty rate: high urgency => HIGH pr/g(tr) mean; low urgency => LOW.
    p_means = np.where(high, spec.penalty.high_mean(), spec.penalty.low_mean)
    p_factors = _truncated_normal(rng, p_means, spec.penalty.cv, 0.0)

    # Bias (§5.3): longer-than-average jobs get divided, shorter multiplied.
    longer = runtimes > mean_runtime
    d_bias = np.where(longer, 1.0 / spec.deadline.bias, spec.deadline.bias)
    b_bias = np.where(longer, 1.0 / spec.budget.bias, spec.budget.bias)
    p_bias = np.where(longer, 1.0 / spec.penalty.bias, spec.penalty.bias)

    deadlines = np.maximum(
        d_factors * d_bias, spec.min_deadline_factor
    ) * runtimes
    budgets = b_factors * b_bias * runtimes * spec.pbase
    penalty_rates = p_factors * p_bias * budgets / deadlines
    return QoSColumns(
        high.tolist(), deadlines.tolist(), budgets.tolist(), penalty_rates.tolist()
    )


def assign_qos(
    jobs: Sequence[Job],
    spec: QoSSpec,
    rng: np.random.Generator | int | None = None,
) -> list[Job]:
    """Annotate ``jobs`` in place with urgency, deadline, budget and penalty.

    Returns the job list for chaining.  Deterministic for a given ``rng``
    seed; the urgency assignment and all three parameter draws come from the
    supplied generator, so two policies evaluated on the same seed see the
    *identical* SLA workload (the paper's controlled-comparison requirement).
    """
    qos = draw_qos([j.runtime for j in jobs], spec, rng)
    high_urgency, low_urgency = Urgency.HIGH, Urgency.LOW
    for job, is_high, deadline, budget, penalty_rate in zip(jobs, *qos):
        job.urgency = high_urgency if is_high else low_urgency
        job.deadline = deadline
        job.budget = budget
        job.penalty_rate = penalty_rate
    return list(jobs)


def qos_statistics(jobs: Sequence[Job]) -> dict:
    """Per-class means of d/tr, b/tr and pr·d/b (for calibration tests)."""
    if not jobs:
        return {"n": 0}
    out: dict = {"n": len(jobs)}
    for label, urgency in (("high", Urgency.HIGH), ("low", Urgency.LOW)):
        sel = [j for j in jobs if j.urgency is urgency]
        if not sel:
            out[label] = None
            continue
        out[label] = {
            "count": len(sel),
            "mean_deadline_factor": float(np.mean([j.deadline / j.runtime for j in sel])),
            "mean_budget_factor": float(np.mean([j.budget / j.runtime for j in sel])),
            "mean_penalty_factor": float(
                np.mean([j.penalty_rate * j.deadline / j.budget for j in sel if j.budget > 0])
            ),
        }
    return out
