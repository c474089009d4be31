"""Generators for every figure in the paper.

Figures 3–8 require full scenario-grid simulations; their generators take a
``base`` configuration so callers choose the scale (the benchmark harness
runs a reduced job count by default, the paper's full scale with
``ExperimentConfig()``).  Figures 1–2 are analytic and cheap.

Each generator returns plain data (``RiskPlot`` objects or series dicts) so
any plotting backend — or the ASCII renderer — can consume them.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.objectives import OBJECTIVES, Objective
from repro.core.riskplot import RiskPlot
from repro.economy.penalty import linear_utility
from repro.experiments.runner import GridAnalysis, run_grid
from repro.experiments.runstore import RunStore
from repro.experiments.sampledata import sample_risk_plot
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig
from repro.policies import BID_POLICIES, COMMODITY_POLICIES
from repro.workload.job import Job

#: panel letters of the 2×4 separate-analysis figures (3 and 6):
#: a/b = wait, c/d = SLA, e/f = reliability, g/h = profitability,
#: left column Set A, right column Set B.
SEPARATE_PANELS = {
    "a": ("A", Objective.WAIT),
    "b": ("B", Objective.WAIT),
    "c": ("A", Objective.SLA),
    "d": ("B", Objective.SLA),
    "e": ("A", Objective.RELIABILITY),
    "f": ("B", Objective.RELIABILITY),
    "g": ("A", Objective.PROFITABILITY),
    "h": ("B", Objective.PROFITABILITY),
}

#: panels of the 2×4 three-objective figures (4 and 7): each drops one
#: objective (the paper's "absence of a particular objective" reading).
THREE_OBJECTIVE_PANELS = {
    "a": ("A", (Objective.SLA, Objective.RELIABILITY, Objective.PROFITABILITY)),
    "b": ("B", (Objective.SLA, Objective.RELIABILITY, Objective.PROFITABILITY)),
    "c": ("A", (Objective.WAIT, Objective.RELIABILITY, Objective.PROFITABILITY)),
    "d": ("B", (Objective.WAIT, Objective.RELIABILITY, Objective.PROFITABILITY)),
    "e": ("A", (Objective.WAIT, Objective.SLA, Objective.PROFITABILITY)),
    "f": ("B", (Objective.WAIT, Objective.SLA, Objective.PROFITABILITY)),
    "g": ("A", (Objective.WAIT, Objective.SLA, Objective.RELIABILITY)),
    "h": ("B", (Objective.WAIT, Objective.SLA, Objective.RELIABILITY)),
}


def figure_1() -> RiskPlot:
    """Fig. 1 — the sample risk-analysis plot of eight policies."""
    return sample_risk_plot()


def figure_2(
    job: Optional[Job] = None, n_points: int = 200
) -> dict[str, list[float]]:
    """Fig. 2 — utility vs completion time under the linear penalty.

    Returns ``{"time": [...], "utility": [...]}`` plus the landmark
    instants; with no job given, uses a representative high-urgency job.
    """
    if job is None:
        job = Job(
            job_id=0, submit_time=0.0, runtime=3600.0, estimate=3600.0,
            procs=1, deadline=7200.0, budget=100.0, penalty_rate=100.0 / 3600.0,
        )
    t_deadline = job.submit_time + job.deadline
    t_end = t_deadline + 2.0 * job.budget / max(job.penalty_rate, 1e-12)
    times = np.linspace(job.submit_time, t_end, n_points)
    return {
        "time": times.tolist(),
        "utility": [linear_utility(job, float(t)) for t in times],
        "submit_time": job.submit_time,
        "deadline_time": t_deadline,
        "budget": job.budget,
    }


# ---------------------------------------------------------------------------
# Grid-backed figures (3-8)
# ---------------------------------------------------------------------------

def run_model_grids(
    model: str,
    base: ExperimentConfig,
    policies: Optional[Sequence[str]] = None,
    scenarios=SCENARIOS,
    cache: Optional[RunStore] = None,
) -> dict[str, GridAnalysis]:
    """Both estimate sets (A and B) of one economic model's grid.

    This is the expensive step shared by figures 3–5 (commodity) and 6–8
    (bid); run it once and pass the result to the figure builders.
    """
    if policies is None:
        policies = COMMODITY_POLICIES if model == "commodity" else BID_POLICIES
    cache = cache if cache is not None else RunStore()
    return {
        set_name: run_grid(policies, model, base, set_name, scenarios, cache)
        for set_name in ("A", "B")
    }


def _separate_figure(grids: dict[str, GridAnalysis], figure_name: str) -> dict[str, RiskPlot]:
    return {
        panel: grids[set_name].separate_plot(
            objective, title=f"Fig. {figure_name}{panel} — Set {set_name}: {objective.value}"
        )
        for panel, (set_name, objective) in SEPARATE_PANELS.items()
    }


def _three_objective_figure(grids: dict[str, GridAnalysis], figure_name: str) -> dict[str, RiskPlot]:
    return {
        panel: grids[set_name].integrated_plot(
            objectives,
            title=(
                f"Fig. {figure_name}{panel} — Set {set_name}: "
                + ", ".join(o.value for o in objectives)
            ),
        )
        for panel, (set_name, objectives) in THREE_OBJECTIVE_PANELS.items()
    }


def _four_objective_figure(grids: dict[str, GridAnalysis], figure_name: str) -> dict[str, RiskPlot]:
    return {
        panel: grids[set_name].integrated_plot(
            OBJECTIVES, title=f"Fig. {figure_name}{panel} — Set {set_name}: all four objectives"
        )
        for panel, set_name in (("a", "A"), ("b", "B"))
    }


def figure_3(base: ExperimentConfig, grids=None, **kwargs) -> dict[str, RiskPlot]:
    """Fig. 3 — commodity market: separate risk analysis of one objective."""
    grids = grids or run_model_grids("commodity", base, **kwargs)
    return _separate_figure(grids, "3")


def figure_4(base: ExperimentConfig, grids=None, **kwargs) -> dict[str, RiskPlot]:
    """Fig. 4 — commodity market: integrated risk analysis of three objectives."""
    grids = grids or run_model_grids("commodity", base, **kwargs)
    return _three_objective_figure(grids, "4")


def figure_5(base: ExperimentConfig, grids=None, **kwargs) -> dict[str, RiskPlot]:
    """Fig. 5 — commodity market: integrated risk analysis of all four objectives."""
    grids = grids or run_model_grids("commodity", base, **kwargs)
    return _four_objective_figure(grids, "5")


def figure_6(base: ExperimentConfig, grids=None, **kwargs) -> dict[str, RiskPlot]:
    """Fig. 6 — bid-based model: separate risk analysis of one objective."""
    grids = grids or run_model_grids("bid", base, **kwargs)
    return _separate_figure(grids, "6")


def figure_7(base: ExperimentConfig, grids=None, **kwargs) -> dict[str, RiskPlot]:
    """Fig. 7 — bid-based model: integrated risk analysis of three objectives."""
    grids = grids or run_model_grids("bid", base, **kwargs)
    return _three_objective_figure(grids, "7")


def figure_8(base: ExperimentConfig, grids=None, **kwargs) -> dict[str, RiskPlot]:
    """Fig. 8 — bid-based model: integrated risk analysis of all four objectives."""
    grids = grids or run_model_grids("bid", base, **kwargs)
    return _four_objective_figure(grids, "8")
