"""Efficient-frontier analysis of risk plots.

The paper borrows its performance/volatility framing from financial risk
management; this module completes the analogy:

- :func:`pareto_frontier` — the set of non-dominated policies: nobody else
  offers both higher performance and lower volatility.  Dominated policies
  can be discarded regardless of the provider's risk appetite.
- :func:`risk_adjusted_score` — a Sharpe-style ratio
  ``(performance − baseline) / volatility`` ranking policies by performance
  *per unit of risk*.
- :func:`dominates` — the underlying strict-dominance test.

All functions accept the per-policy (performance, volatility) pairs of a
single scenario point or of aggregate statistics — any consistent snapshot
of a risk plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

#: volatility below this counts as "riskless" for the ratio.
RISKLESS_EPS = 1e-9


def dominates(
    a: tuple[float, float], b: tuple[float, float], tol: float = 1e-12
) -> bool:
    """True iff point ``a = (performance, volatility)`` strictly dominates
    ``b``: at least as good on both axes and strictly better on one."""
    perf_a, vol_a = a
    perf_b, vol_b = b
    no_worse = perf_a >= perf_b - tol and vol_a <= vol_b + tol
    strictly_better = perf_a > perf_b + tol or vol_a < vol_b - tol
    return no_worse and strictly_better


def pareto_frontier(
    points: Mapping[str, tuple[float, float]]
) -> list[str]:
    """Non-dominated policies, ordered by descending performance.

    ``points`` maps policy → (performance, volatility).
    """
    names = list(points)
    frontier = [
        name
        for name in names
        if not any(
            dominates(points[other], points[name]) for other in names if other != name
        )
    ]
    frontier.sort(key=lambda n: (-points[n][0], points[n][1], n))
    return frontier


def dominated_policies(points: Mapping[str, tuple[float, float]]) -> list[str]:
    """The complement of the frontier (safe to discard)."""
    frontier = set(pareto_frontier(points))
    return sorted(n for n in points if n not in frontier)


def risk_adjusted_score(
    performance: float, volatility: float, baseline: float = 0.0
) -> float:
    """Sharpe-style performance per unit volatility.

    A riskless policy (volatility ≈ 0) scores ``+inf`` when it beats the
    baseline, ``0`` when it matches it, and ``−inf`` below it — the limits
    of the ratio.
    """
    excess = performance - baseline
    if volatility <= RISKLESS_EPS:
        if abs(excess) <= RISKLESS_EPS:
            return 0.0
        return float("inf") if excess > 0 else float("-inf")
    return excess / volatility


@dataclass(frozen=True)
class FrontierEntry:
    policy: str
    performance: float
    volatility: float
    on_frontier: bool
    risk_adjusted: float


def frontier_report(
    points: Mapping[str, tuple[float, float]], baseline: float = 0.0
) -> list[FrontierEntry]:
    """Per-policy frontier membership and risk-adjusted score, ranked by
    the score (frontier members first on ties)."""
    frontier = set(pareto_frontier(points))
    entries = [
        FrontierEntry(
            policy=name,
            performance=perf,
            volatility=vol,
            on_frontier=name in frontier,
            risk_adjusted=risk_adjusted_score(perf, vol, baseline),
        )
        for name, (perf, vol) in points.items()
    ]
    entries.sort(key=lambda e: (-e.risk_adjusted, not e.on_frontier, e.policy))
    return entries


def plot_points(plot, statistic: str = "max") -> dict[str, tuple[float, float]]:
    """Extract per-policy (performance, volatility) pairs from a
    :class:`~repro.core.riskplot.RiskPlot`.

    ``statistic`` selects the snapshot: ``"max"`` pairs each policy's best
    performance with its lowest volatility (the Table III view), ``"mean"``
    averages its points.
    """
    out = {}
    for name, series in plot.series.items():
        if statistic == "max":
            out[name] = (series.max_performance, series.min_volatility)
        elif statistic == "mean":
            n = len(series.points)
            out[name] = (
                math.fsum(p.performance for p in series.points) / n,
                math.fsum(p.volatility for p in series.points) / n,
            )
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    return out
