"""A priori risk analysis (paper §1/§7 future work).

The paper closes: the a posteriori evaluation results "can later be used to
generate an a priori risk analysis of policies by identifying possible
risks for future utility computing situations."  This module is that step:
it consumes the separate-risk grids measured a posteriori
(``{objective: {policy: {scenario: SeparateRisk}}}``) and produces

- a :class:`RiskProfile` per policy — aggregate exposure per objective and
  the *risk drivers*: the scenarios responsible for its worst performance
  and highest volatility,
- a :func:`risk_register` — the enterprise-risk-management artefact: one
  entry per material (policy, objective, scenario) exposure with a severity
  grade,
- :func:`recommend_policy` — an a priori deployment decision for a provider
  with known objective weights and a volatility tolerance.

Severity grading follows the plot geometry of §4.3: performance shortfall
(1 − performance) is the impact, volatility is the likelihood proxy.
"""

from __future__ import annotations

import math
import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.integrated import equal_weights, integrated_risk
from repro.core.objectives import Objective
from repro.core.separate import SeparateRisk

#: type alias: the a posteriori measurement grid.
SeparateGrid = Mapping[Objective, Mapping[str, Mapping[str, SeparateRisk]]]


class Severity(enum.IntEnum):
    """Risk grade of one exposure (ordered, so registers sort by it)."""

    LOW = 0
    MODERATE = 1
    HIGH = 2
    CRITICAL = 3


def grade(performance: float, volatility: float) -> Severity:
    """Grade one (performance, volatility) observation.

    Impact = 1 − performance, likelihood proxy = volatility; the grade is
    driven by their sum, with CRITICAL reserved for exposures that are both
    weak *and* erratic.
    """
    impact = 1.0 - performance
    score = impact + volatility
    if impact >= 0.5 and volatility >= 0.2:
        return Severity.CRITICAL
    if score >= 0.6:
        return Severity.HIGH
    if score >= 0.3:
        return Severity.MODERATE
    return Severity.LOW


@dataclass(frozen=True)
class RiskDriver:
    """One scenario's contribution to a policy's risk on one objective."""

    objective: Objective
    scenario: str
    performance: float
    volatility: float
    severity: Severity


@dataclass
class RiskProfile:
    """A priori view of one policy, aggregated from a posteriori results."""

    policy: str
    #: mean (performance, volatility) per objective over all scenarios.
    aggregate: dict[Objective, SeparateRisk] = field(default_factory=dict)
    #: per objective, the scenario with the worst performance.
    worst_performance: dict[Objective, RiskDriver] = field(default_factory=dict)
    #: per objective, the scenario with the highest volatility.
    highest_volatility: dict[Objective, RiskDriver] = field(default_factory=dict)

    def overall(
        self, weights: Optional[Mapping[Objective, float]] = None
    ):
        """Weighted integrated risk over the aggregated objectives."""
        return integrated_risk(self.aggregate, weights)

    def severity(self, objective: Objective) -> Severity:
        agg = self.aggregate[objective]
        return grade(agg.performance, agg.volatility)


def build_profiles(separate: SeparateGrid) -> dict[str, RiskProfile]:
    """Aggregate an a posteriori grid into per-policy risk profiles."""
    objectives = list(separate.keys())
    if not objectives:
        raise ValueError("empty a posteriori grid")
    policies = list(separate[objectives[0]].keys())
    profiles: dict[str, RiskProfile] = {}
    for policy in policies:
        profile = RiskProfile(policy=policy)
        for objective in objectives:
            rows = separate[objective][policy]
            if not rows:
                raise ValueError(f"no scenarios for {policy}/{objective.value}")
            drivers = [
                RiskDriver(
                    objective=objective,
                    scenario=scenario,
                    performance=risk.performance,
                    volatility=risk.volatility,
                    severity=grade(risk.performance, risk.volatility),
                )
                for scenario, risk in rows.items()
            ]
            n = len(drivers)
            profile.aggregate[objective] = SeparateRisk(
                performance=math.fsum(d.performance for d in drivers) / n,
                volatility=math.fsum(d.volatility for d in drivers) / n,
            )
            profile.worst_performance[objective] = min(
                drivers, key=lambda d: (d.performance, -d.volatility)
            )
            profile.highest_volatility[objective] = max(
                drivers, key=lambda d: (d.volatility, -d.performance)
            )
        profiles[policy] = profile
    return profiles


@dataclass(frozen=True)
class RiskRegisterEntry:
    """One row of the enterprise-style risk register."""

    policy: str
    objective: Objective
    scenario: str
    severity: Severity
    performance: float
    volatility: float
    note: str

    def as_row(self) -> dict:
        return {
            "policy": self.policy,
            "objective": self.objective.value,
            "scenario": self.scenario,
            "severity": self.severity.name,
            "performance": self.performance,
            "volatility": self.volatility,
            "note": self.note,
        }


def risk_register(
    separate: SeparateGrid, minimum: Severity = Severity.MODERATE
) -> list[RiskRegisterEntry]:
    """Every (policy, objective, scenario) exposure at or above ``minimum``,
    most severe first."""
    entries: list[RiskRegisterEntry] = []
    for objective, by_policy in separate.items():
        for policy, by_scenario in by_policy.items():
            for scenario, risk in by_scenario.items():
                severity = grade(risk.performance, risk.volatility)
                if severity < minimum:
                    continue
                note = (
                    f"{policy} achieves {risk.performance:.2f} on "
                    f"{objective.value} when {scenario} varies "
                    f"(volatility {risk.volatility:.2f})"
                )
                entries.append(
                    RiskRegisterEntry(
                        policy=policy,
                        objective=objective,
                        scenario=scenario,
                        severity=severity,
                        performance=risk.performance,
                        volatility=risk.volatility,
                        note=note,
                    )
                )
    entries.sort(
        key=lambda e: (-e.severity, e.performance, -e.volatility, e.policy)
    )
    return entries


@dataclass(frozen=True)
class Recommendation:
    """The a priori deployment decision."""

    policy: str
    performance: float
    volatility: float
    within_tolerance: bool
    rationale: str
    alternatives: tuple[str, ...] = ()


def recommend_policy(
    separate: SeparateGrid,
    weights: Optional[Mapping[Objective, float]] = None,
    volatility_tolerance: float = 0.2,
) -> Recommendation:
    """Pick the policy a provider should deploy for a *future* situation.

    Candidates within the volatility tolerance are ranked by weighted
    performance; if none qualifies, the lowest-volatility policy is
    recommended with a flag.  The rationale cites the winning policy's
    dominant risk driver so the provider knows what to monitor.
    """
    if not 0.0 <= volatility_tolerance:
        raise ValueError("volatility tolerance cannot be negative")
    profiles = build_profiles(separate)
    if weights is None:
        weights = equal_weights(list(separate.keys()))

    scored = []
    for profile in profiles.values():
        overall = profile.overall(weights)
        scored.append((profile, overall))
    qualified = [s for s in scored if s[1].volatility <= volatility_tolerance]
    pool = qualified if qualified else scored
    pool.sort(key=lambda s: (-s[1].performance, s[1].volatility, s[0].policy))
    best, overall = pool[0]

    driver = max(
        (best.highest_volatility[o] for o in separate.keys()),
        key=lambda d: d.volatility,
    )
    rationale = (
        f"{best.policy}: weighted performance {overall.performance:.3f} at "
        f"volatility {overall.volatility:.3f}"
        + ("" if qualified else " (no policy met the volatility tolerance)")
        + f"; dominant risk driver: {driver.objective.value} under varying "
        f"{driver.scenario} (volatility {driver.volatility:.2f})"
    )
    # Alternatives come from the full field (tolerance aside) so the
    # provider always sees the runners-up.
    scored.sort(key=lambda s: (-s[1].performance, s[1].volatility, s[0].policy))
    alternatives = tuple(
        p.policy for p, _ in scored if p.policy != best.policy
    )[:3]
    return Recommendation(
        policy=best.policy,
        performance=overall.performance,
        volatility=overall.volatility,
        within_tolerance=bool(qualified),
        rationale=rationale,
        alternatives=alternatives,
    )
