"""Generators for every table in the paper.

Tables I, V and VI are definitional (objectives, policy matrix, scenario
grid); Tables II–IV are derived from the Fig. 1 sample plot through the
:mod:`repro.core` machinery, which is exactly how a user derives the same
tables for their own measured plots.
"""

from __future__ import annotations

from repro.core.objectives import OBJECTIVES, Objective
from repro.core.ranking import rank_policies
from repro.core.riskplot import RiskPlot
from repro.experiments.sampledata import sample_risk_plot
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig
from repro.policies import BID_POLICIES, COMMODITY_POLICIES


def table_i() -> list[dict]:
    """Table I — focus and abbreviation of the four essential objectives."""
    descriptions = {
        Objective.WAIT: "Manage wait time for SLA acceptance",
        Objective.SLA: "Meet SLA requests",
        Objective.RELIABILITY: "Ensure reliability of accepted SLA",
        Objective.PROFITABILITY: "Attain profitability",
    }
    return [
        {
            "focus": "User-centric" if obj.user_centric else "Provider-centric",
            "objective": descriptions[obj],
            "abbreviation": obj.value,
        }
        for obj in OBJECTIVES
    ]


def table_ii(plot: RiskPlot | None = None) -> list[dict]:
    """Table II — per-policy max/min performance and volatility with
    differences, from the Fig. 1 sample plot (or any plot given)."""
    plot = plot if plot is not None else sample_risk_plot()
    rows = []
    for name in sorted(plot.series):
        s = plot.series[name]
        rows.append(
            {
                "policy": name,
                "max_performance": round(s.max_performance, 6),
                "min_performance": round(s.min_performance, 6),
                "performance_difference": round(s.performance_difference, 6),
                "max_volatility": round(s.max_volatility, 6),
                "min_volatility": round(s.min_volatility, 6),
                "volatility_difference": round(s.volatility_difference, 6),
            }
        )
    return rows


def table_iii(plot: RiskPlot | None = None) -> list[dict]:
    """Table III — ranking of policies based on best performance."""
    plot = plot if plot is not None else sample_risk_plot()
    return [r.as_row() for r in rank_policies(plot, by="performance")]


def table_iv(plot: RiskPlot | None = None) -> list[dict]:
    """Table IV — ranking of policies based on best volatility."""
    plot = plot if plot is not None else sample_risk_plot()
    return [r.as_row() for r in rank_policies(plot, by="volatility")]


#: the primary scheduling parameter column of Table V.
_PRIMARY_PARAMETER = {
    "FCFS-BF": "arrival time",
    "SJF-BF": "runtime",
    "EDF-BF": "deadline",
    "Libra": "deadline",
    "Libra+$": "deadline",
    "LibraRiskD": "deadline",
    "FirstReward": "budget with penalty",
}


#: row order of Table V (the registry also holds ablation baselines that
#: are not part of the paper's table).
_TABLE_V_ORDER = (
    "FCFS-BF", "SJF-BF", "EDF-BF", "Libra", "Libra+$", "LibraRiskD", "FirstReward",
)


def table_v() -> list[dict]:
    """Table V — policies, the economic models they are examined in, and
    their primary scheduling parameter."""
    rows = []
    for name in _TABLE_V_ORDER:
        rows.append(
            {
                "policy": name,
                "commodity_market_model": name in COMMODITY_POLICIES,
                "bid_based_model": name in BID_POLICIES,
                "primary_parameter": _PRIMARY_PARAMETER[name],
            }
        )
    return rows


def table_vi(base: ExperimentConfig | None = None) -> list[dict]:
    """Table VI — the twelve scenarios, their varying values, and the
    default each knob takes when not varied."""
    base = base if base is not None else ExperimentConfig()
    return [
        {
            "scenario": s.name,
            "field": s.field_name,
            "values": list(s.values),
            "default": getattr(base, s.field_name),
        }
        for s in SCENARIOS
    ]


#: every table of the paper by number: (builder, title).
TABLES = {
    1: (table_i, "Table I — objectives"),
    2: (table_ii, "Table II — sample statistics"),
    3: (table_iii, "Table III — ranking by best performance"),
    4: (table_iv, "Table IV — ranking by best volatility"),
    5: (table_v, "Table V — policies"),
    6: (table_vi, "Table VI — scenarios"),
}
