"""The paper's contribution: objectives and risk analysis (paper §3–4).

- :mod:`repro.core.objectives` — the four essential objectives of a
  commercial computing service and their measurement (Eqs. 1–4).
- :mod:`repro.core.normalize` — standardisation of raw objective values to
  [0, 1] with 1 = best (paper §4.1).
- :mod:`repro.core.separate` — separate risk analysis: performance μ_sep and
  volatility σ_sep of one objective over a scenario (Eqs. 5–6).
- :mod:`repro.core.integrated` — integrated risk analysis: weighted
  combination over objectives (Eqs. 7–8).
- :mod:`repro.core.trend` — trend lines over (volatility, performance)
  points and gradient classification.
- :mod:`repro.core.ranking` — the policy ranking rules of Tables III–IV.
- :mod:`repro.core.riskplot` — the risk-analysis plot data model (Fig. 1)
  with ASCII and CSV renderings.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.core.apriori import (
        Recommendation,
        RiskProfile,
        RiskRegisterEntry,
        Severity,
        build_profiles,
        recommend_policy,
        risk_register,
    )
    from repro.core.frontier import frontier_report, pareto_frontier, risk_adjusted_score
    from repro.core.integrated import IntegratedRisk, equal_weights, integrated_risk
    from repro.core.normalize import (
        NormalizationError,
        normalize_objective,
        normalize_percentage,
        normalize_wait,
    )
    from repro.core.objectives import (
        OBJECTIVES,
        JobOutcome,
        Objective,
        ObjectiveSet,
        compute_objectives,
    )
    from repro.core.ranking import RankedPolicy, rank_policies
    from repro.core.riskplot import PolicySeries, RiskPlot, RiskPoint
    from repro.core.separate import SeparateRisk, separate_risk
    from repro.core.trend import Gradient, TrendLine, fit_trend

__all__ = [
    "pareto_frontier",
    "frontier_report",
    "risk_adjusted_score",
    "Severity",
    "RiskProfile",
    "RiskRegisterEntry",
    "Recommendation",
    "build_profiles",
    "risk_register",
    "recommend_policy",
    "Objective",
    "OBJECTIVES",
    "ObjectiveSet",
    "JobOutcome",
    "compute_objectives",
    "NormalizationError",
    "normalize_percentage",
    "normalize_wait",
    "normalize_objective",
    "SeparateRisk",
    "separate_risk",
    "IntegratedRisk",
    "integrated_risk",
    "equal_weights",
    "TrendLine",
    "Gradient",
    "fit_trend",
    "RankedPolicy",
    "rank_policies",
    "RiskPoint",
    "PolicySeries",
    "RiskPlot",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.core.apriori": (
        "Recommendation",
        "RiskProfile",
        "RiskRegisterEntry",
        "Severity",
        "build_profiles",
        "recommend_policy",
        "risk_register",
    ),
    "repro.core.frontier": ("frontier_report", "pareto_frontier", "risk_adjusted_score"),
    "repro.core.integrated": ("IntegratedRisk", "equal_weights", "integrated_risk"),
    "repro.core.normalize": (
        "NormalizationError",
        "normalize_objective",
        "normalize_percentage",
        "normalize_wait",
    ),
    "repro.core.objectives": (
        "OBJECTIVES",
        "JobOutcome",
        "Objective",
        "ObjectiveSet",
        "compute_objectives",
    ),
    "repro.core.ranking": ("RankedPolicy", "rank_policies"),
    "repro.core.riskplot": ("PolicySeries", "RiskPlot", "RiskPoint"),
    "repro.core.separate": ("SeparateRisk", "separate_risk"),
    "repro.core.trend": ("Gradient", "TrendLine", "fit_trend"),
})
