"""Risk-analysis plot data model (paper §4.3, Fig. 1).

A risk-analysis plot scatters one point per (policy, scenario): x =
volatility (standard deviation), y = performance, both in [0, 1].  The model
here captures everything the paper derives from the plot — per-policy
max/min performance and volatility, their differences (Table II), and the
trend line — and renders to ASCII (for terminals/logs) and CSV (for any
plotting tool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from io import StringIO
from typing import Mapping

from repro.core.trend import TrendLine, fit_trend


@dataclass(frozen=True)
class RiskPoint:
    """One (scenario, volatility, performance) observation of a policy."""

    scenario: str
    volatility: float
    performance: float

    def __post_init__(self) -> None:
        if not (-1e-9 <= self.performance <= 1.0 + 1e-9):
            raise ValueError(f"performance out of [0,1]: {self.performance}")
        if self.volatility < -1e-9:
            raise ValueError(f"negative volatility: {self.volatility}")


@dataclass
class PolicySeries:
    """All risk points of one policy, with the Table II summary statistics."""

    name: str
    points: list[RiskPoint] = field(default_factory=list)

    def add(self, scenario: str, volatility: float, performance: float) -> None:
        self.points.append(RiskPoint(scenario, float(volatility), float(performance)))

    # -- Table II quantities ------------------------------------------------
    @property
    def max_performance(self) -> float:
        return max(p.performance for p in self.points)

    @property
    def min_performance(self) -> float:
        return min(p.performance for p in self.points)

    @property
    def performance_difference(self) -> float:
        return self.max_performance - self.min_performance

    @property
    def max_volatility(self) -> float:
        return max(p.volatility for p in self.points)

    @property
    def min_volatility(self) -> float:
        return min(p.volatility for p in self.points)

    @property
    def volatility_difference(self) -> float:
        return self.max_volatility - self.min_volatility

    def trend(self) -> TrendLine:
        """Trend line over this policy's (volatility, performance) points."""
        return fit_trend([(p.volatility, p.performance) for p in self.points])

    def is_ideal(self, tol: float = 1e-9) -> bool:
        """True iff every point sits at the ideal (volatility 0, performance 1)."""
        return all(
            abs(p.performance - 1.0) <= tol and p.volatility <= tol for p in self.points
        )


@dataclass
class RiskPlot:
    """A complete risk-analysis plot: several policies over shared scenarios."""

    title: str = ""
    series: dict[str, PolicySeries] = field(default_factory=dict)

    def policy(self, name: str) -> PolicySeries:
        """The series for ``name``, created on first use."""
        if name not in self.series:
            self.series[name] = PolicySeries(name)
        return self.series[name]

    def add_point(
        self, policy: str, scenario: str, volatility: float, performance: float
    ) -> None:
        self.policy(policy).add(scenario, volatility, performance)

    def policies(self) -> list[str]:
        return list(self.series)

    def scenarios(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self.series.values():
            for p in s.points:
                seen.setdefault(p.scenario, None)
        return list(seen)

    # -- Renderings ---------------------------------------------------------
    def to_csv(self) -> str:
        """``policy,scenario,volatility,performance`` rows (header included)."""
        out = StringIO()
        out.write("policy,scenario,volatility,performance\n")
        for series in self.series.values():
            for p in series.points:
                out.write(
                    f"{series.name},{p.scenario},{p.volatility:.6f},{p.performance:.6f}\n"
                )
        return out.getvalue()

    def summary_rows(self) -> list[dict]:
        """Table II rows: per-policy max/min/difference of both axes."""
        rows = []
        for series in self.series.values():
            rows.append(
                {
                    "policy": series.name,
                    "max_performance": series.max_performance,
                    "min_performance": series.min_performance,
                    "performance_difference": series.performance_difference,
                    "max_volatility": series.max_volatility,
                    "min_volatility": series.min_volatility,
                    "volatility_difference": series.volatility_difference,
                    "gradient": series.trend().gradient.value,
                }
            )
        return rows

    def render_ascii(self, width: int = 61, height: int = 21, x_max: float = None) -> str:
        """Scatter the plot on a character grid (y: performance 0..1 bottom
        to top; x: volatility 0..x_max).  Policies are labelled a, b, c…;
        overlapping points show ``*``."""
        if not self.series:
            return "(empty risk plot)"
        if x_max is None:
            x_max = max(
                (p.volatility for s in self.series.values() for p in s.points),
                default=0.0,
            )
            x_max = max(x_max, 0.5)
        grid = [[" "] * width for _ in range(height)]
        labels = {}
        for idx, name in enumerate(self.series):
            labels[name] = chr(ord("a") + idx % 26)
        for name, series in self.series.items():
            for p in series.points:
                x = min(int(round(p.volatility / x_max * (width - 1))), width - 1)
                y = min(int(round(p.performance * (height - 1))), height - 1)
                row = height - 1 - y
                grid[row][x] = labels[name] if grid[row][x] in (" ", labels[name]) else "*"
        lines = []
        if self.title:
            lines.append(self.title)
        for i, row in enumerate(grid):
            yval = 1.0 - i / (height - 1)
            lines.append(f"{yval:4.1f} |" + "".join(row))
        lines.append("     +" + "-" * width)
        lines.append(f"      0{' ' * (width - 8)}{x_max:.2f}  (volatility)")
        lines.append(
            "      legend: "
            + ", ".join(f"{label}={name}" for name, label in labels.items())
        )
        return "\n".join(lines)


def plot_from_results(
    title: str,
    results: Mapping[str, Mapping[str, tuple[float, float]]],
) -> RiskPlot:
    """Build a plot from ``{policy: {scenario: (performance, volatility)}}``."""
    plot = RiskPlot(title=title)
    for policy, scenarios in results.items():
        for scenario, (performance, volatility) in scenarios.items():
            plot.add_point(policy, scenario, volatility, performance)
    return plot
