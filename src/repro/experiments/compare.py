"""Comparison of two grid analyses.

The paper's central experimental contrast is Set A vs Set B — the same
grid under accurate vs trace runtime estimates.  This module computes the
per-(policy, objective) *performance deltas* between any two compatible
grids and summarises who gains, who loses, and by how much; it also checks
rank flips ("who wins" changes), which are exactly the findings §6 reports
in prose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.objectives import OBJECTIVES, Objective
from repro.core.ranking import rank_policies
from repro.experiments.runner import GridAnalysis


@dataclass(frozen=True)
class Delta:
    """Mean performance change for one policy on one objective (b − a)."""

    policy: str
    objective: Objective
    mean_a: float
    mean_b: float

    @property
    def change(self) -> float:
        return self.mean_b - self.mean_a


def _check_compatible(a: GridAnalysis, b: GridAnalysis) -> None:
    if a.policies != b.policies or a.scenarios != b.scenarios:
        raise ValueError("grids must share policies and scenarios to compare")


def _mean_performance(grid: GridAnalysis, objective: Objective, policy: str) -> float:
    cells = grid.separate[objective][policy]
    return math.fsum(r.performance for r in cells.values()) / len(cells)


def performance_deltas(a: GridAnalysis, b: GridAnalysis) -> list[Delta]:
    """Per-(policy, objective) mean performance deltas, biggest drop first."""
    _check_compatible(a, b)
    deltas = [
        Delta(
            policy=policy,
            objective=objective,
            mean_a=_mean_performance(a, objective, policy),
            mean_b=_mean_performance(b, objective, policy),
        )
        for objective in OBJECTIVES
        for policy in a.policies
    ]
    deltas.sort(key=lambda d: (d.change, d.policy))
    return deltas


@dataclass(frozen=True)
class RankFlip:
    """A change in the four-objective 'who wins' ordering between grids."""

    position: int
    policy_a: str
    policy_b: str


def ranking_flips(a: GridAnalysis, b: GridAnalysis) -> list[RankFlip]:
    """Positions where the integrated four-objective ranking differs."""
    _check_compatible(a, b)
    order_a = [r.policy for r in rank_policies(a.integrated_plot(OBJECTIVES))]
    order_b = [r.policy for r in rank_policies(b.integrated_plot(OBJECTIVES))]
    return [
        RankFlip(position=i + 1, policy_a=pa, policy_b=pb)
        for i, (pa, pb) in enumerate(zip(order_a, order_b))
        if pa != pb
    ]


def comparison_rows(a: GridAnalysis, b: GridAnalysis, top: int = 0) -> list[dict]:
    """Report rows for :func:`performance_deltas` (all, or the ``top``
    largest movements in either direction)."""
    deltas = performance_deltas(a, b)
    if top > 0:
        by_magnitude = sorted(deltas, key=lambda d: -abs(d.change))[:top]
        deltas = sorted(by_magnitude, key=lambda d: (d.change, d.policy))
    return [
        {
            "policy": d.policy,
            "objective": d.objective.value,
            f"set_{a.set_name}": d.mean_a,
            f"set_{b.set_name}": d.mean_b,
            "change": d.change,
        }
        for d in deltas
    ]


def most_affected_policy(a: GridAnalysis, b: GridAnalysis) -> str:
    """The policy whose summed performance drops the most from a to b."""
    _check_compatible(a, b)
    totals: dict[str, float] = {policy: 0.0 for policy in a.policies}
    for d in performance_deltas(a, b):
        totals[d.policy] += d.change
    return min(totals, key=lambda p: (totals[p], p))
