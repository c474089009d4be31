"""Unit tests for efficient-frontier analysis."""

import pytest

from repro.core.frontier import (
    dominated_policies,
    dominates,
    frontier_report,
    pareto_frontier,
    plot_points,
    risk_adjusted_score,
)
from repro.core.riskplot import RiskPlot


def test_dominates_strict():
    assert dominates((0.9, 0.1), (0.8, 0.2))
    assert dominates((0.9, 0.1), (0.9, 0.2))   # same perf, less risk
    assert dominates((0.9, 0.1), (0.8, 0.1))   # more perf, same risk
    assert not dominates((0.9, 0.1), (0.9, 0.1))  # identical: no strict edge
    assert not dominates((0.9, 0.3), (0.8, 0.1))  # trade-off: incomparable


def test_frontier_keeps_tradeoff_points():
    points = {
        "high_risk_high_perf": (0.9, 0.4),
        "low_risk_low_perf": (0.6, 0.05),
        "dominated": (0.55, 0.4),
    }
    frontier = pareto_frontier(points)
    assert frontier == ["high_risk_high_perf", "low_risk_low_perf"]
    assert dominated_policies(points) == ["dominated"]


def test_frontier_single_policy():
    assert pareto_frontier({"only": (0.5, 0.2)}) == ["only"]


def test_frontier_identical_points_all_kept():
    points = {"a": (0.7, 0.2), "b": (0.7, 0.2)}
    assert set(pareto_frontier(points)) == {"a", "b"}


def test_risk_adjusted_score_basic():
    assert risk_adjusted_score(0.8, 0.2) == pytest.approx(4.0)
    assert risk_adjusted_score(0.8, 0.2, baseline=0.4) == pytest.approx(2.0)


def test_risk_adjusted_riskless_limits():
    assert risk_adjusted_score(0.9, 0.0) == float("inf")
    assert risk_adjusted_score(-0.1, 0.0) == float("-inf")
    assert risk_adjusted_score(0.0, 0.0) == 0.0


def test_frontier_report_ordering():
    points = {
        "steady": (0.8, 0.1),
        "wild": (0.9, 0.45),
        "bad": (0.3, 0.4),
    }
    report = frontier_report(points)
    assert [e.policy for e in report] == ["steady", "wild", "bad"]
    by_name = {e.policy: e for e in report}
    assert by_name["steady"].on_frontier
    assert by_name["wild"].on_frontier
    assert not by_name["bad"].on_frontier


def test_plot_points_max_and_mean():
    plot = RiskPlot()
    plot.add_point("p", "s1", 0.1, 0.9)
    plot.add_point("p", "s2", 0.3, 0.5)
    maxed = plot_points(plot, "max")
    assert maxed["p"] == (0.9, 0.1)
    mean = plot_points(plot, "mean")
    assert mean["p"] == (pytest.approx(0.7), pytest.approx(0.2))
    with pytest.raises(ValueError):
        plot_points(plot, "median")


def test_frontier_from_sample_figure():
    from repro.experiments.sampledata import sample_risk_plot

    points = plot_points(sample_risk_plot(), "max")
    frontier = pareto_frontier(points)
    # A is ideal: it dominates everything else, so the frontier is {A}...
    # except B and E which trade performance against volatility? A has
    # (1.0, 0.0): nothing survives against it.
    assert frontier == ["A"]
