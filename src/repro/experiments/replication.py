"""Multi-seed replication of risk analyses.

The paper reports single-run results (one trace, one QoS draw).  For a
reproduction it is worth knowing how much of each figure is signal: this
module repeats a grid analysis over independent workload seeds and reports
per-cell means with Student-t confidence intervals, plus a stability check
for ranking claims ("policy X outperforms Y in k of n replicates").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from scipy import stats as scipy_stats

from repro.core.objectives import Objective
from repro.experiments.pipeline import assemble_grid, execute_plan, grid_plan
from repro.experiments.runner import GridAnalysis
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig, Scenario


@dataclass(frozen=True)
class ReplicateStats:
    """Mean ± half-width of the 95 % confidence interval over replicates."""

    mean: float
    std: float
    ci_halfwidth: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def high(self) -> float:
        return self.mean + self.ci_halfwidth

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.ci_halfwidth:.3f} (n={self.n})"


def t_interval(values: Sequence[float], confidence: float = 0.95) -> ReplicateStats:
    """Student-t confidence interval for the mean of ``values``."""
    n = len(values)
    if n == 0:
        raise ValueError("no replicates")
    mean = math.fsum(values) / n
    if n == 1:
        return ReplicateStats(mean=mean, std=0.0, ci_halfwidth=float("inf"), n=1)
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    t_crit = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return ReplicateStats(
        mean=mean, std=std, ci_halfwidth=t_crit * std / math.sqrt(n), n=n
    )


@dataclass
class ReplicatedAnalysis:
    """Grid analyses of the same experiment under independent seeds."""

    grids: list[GridAnalysis]

    def __post_init__(self) -> None:
        if not self.grids:
            raise ValueError("need at least one replicate")
        first = self.grids[0]
        for g in self.grids[1:]:
            if g.policies != first.policies or g.scenarios != first.scenarios:
                raise ValueError("replicates must share policies and scenarios")

    @property
    def policies(self) -> tuple[str, ...]:
        return self.grids[0].policies

    @property
    def scenarios(self) -> tuple[str, ...]:
        return self.grids[0].scenarios

    def performance_stats(
        self, objective: Objective, policy: str, scenario: str
    ) -> ReplicateStats:
        return t_interval(
            [g.separate[objective][policy][scenario].performance for g in self.grids]
        )

    def volatility_stats(
        self, objective: Objective, policy: str, scenario: str
    ) -> ReplicateStats:
        return t_interval(
            [g.separate[objective][policy][scenario].volatility for g in self.grids]
        )

    def dominance(
        self, objective: Objective, better: str, worse: str
    ) -> float:
        """Fraction of (replicate, scenario) cells where ``better`` strictly
        outperforms ``worse`` — the stability of a ranking claim."""
        wins = total = 0
        for g in self.grids:
            for scenario in self.scenarios:
                a = g.separate[objective][better][scenario].performance
                b = g.separate[objective][worse][scenario].performance
                wins += a > b
                total += 1
        return wins / total if total else 0.0

    def summary_rows(self, objective: Objective) -> list[dict]:
        """Report rows: per (policy, scenario) performance mean ± CI."""
        rows = []
        for policy in self.policies:
            for scenario in self.scenarios:
                perf = self.performance_stats(objective, policy, scenario)
                vol = self.volatility_stats(objective, policy, scenario)
                rows.append(
                    {
                        "policy": policy,
                        "scenario": scenario,
                        "performance": perf.mean,
                        "perf_ci95": perf.ci_halfwidth,
                        "volatility": vol.mean,
                        "vol_ci95": vol.ci_halfwidth,
                    }
                )
        return rows


def run_replicated(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    set_name: str = "A",
    scenarios: Sequence[Scenario] = SCENARIOS,
    seeds: Sequence[int] = (0, 1, 2),
    cache: Optional[RunStore] = None,
    n_workers: int = 1,
) -> ReplicatedAnalysis:
    """Run the same grid under several workload seeds.

    All replicates are planned as one work list and executed through the
    unified pipeline, so the process pool (``n_workers > 1``) spans seeds
    rather than draining one replicate at a time, and a disk-backed
    ``cache`` resumes an interrupted replication study mid-seed.
    """
    cache = cache if cache is not None else RunStore()
    bases = [base.with_values(seed=seed) for seed in seeds]
    plan = [
        item
        for seeded in bases
        for item in grid_plan(policies, model_name, seeded, set_name, scenarios)
    ]
    execute_plan(plan, cache, n_workers=n_workers)
    grids = [
        assemble_grid(cache, policies, model_name, seeded, set_name, scenarios)
        for seeded in bases
    ]
    return ReplicatedAnalysis(grids=grids)
