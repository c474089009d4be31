"""MTBF sweep: dependability as a risk factor (availability vs risk).

The paper evaluates its policies on a failure-free SDSC SP2; this
experiment asks how each policy's risk profile degrades when nodes fail.
One knob — the per-node MTBF — is swept over six levels exactly like a
Table VI scenario (the virtual ``fault_mtbf`` field of
:meth:`~repro.experiments.scenarios.ExperimentConfig.with_values` makes
fault knobs first-class scenario knobs), every other fault parameter held
fixed.  Each level's steady-state availability ``MTBF / (MTBF + MTTR)``
labels the row, so the output reads as an availability-vs-risk table: raw
objectives per level plus the separate and integrated risk reduction
(Eqs. 5–6) over the sweep.

Runs flow through :func:`repro.experiments.runner.run_single`, so they are
content-addressed in the run store like any other run — a faulty run's
identity includes the full ``FaultConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.integrated import IntegratedRisk, integrated_risk
from repro.core.objectives import OBJECTIVES, Objective, ObjectiveSet
from repro.core.separate import SeparateRisk
from repro.experiments.runner import run_scenario, run_single
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, Scenario

#: default per-node MTBF levels (seconds): 6 h … 8 days.  The span brackets
#: the regimes reported for commodity clusters (Schroeder & Gibson, DSN'06):
#: the low end makes failures a first-order effect on a week-long trace,
#: the high end approaches the failure-free baseline.
FAULT_MTBF_LEVELS: tuple[float, ...] = (
    21_600.0,
    43_200.0,
    86_400.0,
    172_800.0,
    345_600.0,
    691_200.0,
)


def mtbf_scenario(values: Sequence[float] = FAULT_MTBF_LEVELS) -> Scenario:
    """The MTBF sweep as a :class:`Scenario` (usable anywhere one is)."""
    return Scenario("MTBF", "fault_mtbf", tuple(float(v) for v in values))


#: default cascade-probability levels for the correlated sweep: 0 is the
#: independent-failures baseline (domain outages only), 1 means every
#: failure drags down its whole neighbourhood.
CASCADE_PROB_LEVELS: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5, 1.0)


def cascade_scenario(values: Sequence[float] = CASCADE_PROB_LEVELS) -> Scenario:
    """The cascade-probability sweep as a :class:`Scenario`."""
    return Scenario("cascade", "fault_cascade_prob", tuple(float(v) for v in values))


@dataclass(frozen=True)
class FaultSweepRow:
    """Raw objectives of one policy at one MTBF level."""

    mtbf: float
    availability: float
    policy: str
    objectives: ObjectiveSet


@dataclass
class FaultSweepResult:
    """Everything one MTBF sweep produces."""

    model: str
    recovery: str
    mttr: float
    policies: tuple[str, ...]
    mtbfs: tuple[float, ...]
    rows: list[FaultSweepRow]
    #: separate risk per objective per policy, reduced over the MTBF axis.
    separate: dict[Objective, dict[str, SeparateRisk]]
    #: equal-weight integration of all four objectives per policy.
    integrated: dict[str, IntegratedRisk]

    def table(self) -> str:
        """The availability-vs-risk table, ready to print."""
        lines = [
            f"MTBF sweep — model={self.model} recovery={self.recovery} "
            f"MTTR={self.mttr / 3600:g}h",
            "",
            f"{'MTBF':>8} {'avail':>7} {'policy':<14} "
            f"{'wait':>8} {'sla':>8} {'reliab':>8} {'profit':>10}",
        ]
        for row in self.rows:
            o = row.objectives
            lines.append(
                f"{row.mtbf / 3600:>7.4g}h {row.availability:>7.4f} "
                f"{row.policy:<14} {o.wait:>8.3f} {o.sla:>8.3f} "
                f"{o.reliability:>8.3f} {o.profitability:>10.1f}"
            )
        lines.append("")
        lines.append(
            f"{'policy':<14} {'performance':>12} {'volatility':>11}   "
            "(integrated risk over the sweep, equal weights)"
        )
        for policy in self.policies:
            risk = self.integrated[policy]
            lines.append(
                f"{policy:<14} {risk.performance:>12.4f} {risk.volatility:>11.4f}"
            )
        return "\n".join(lines)


def run_fault_sweep(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    mtbfs: Sequence[float] = FAULT_MTBF_LEVELS,
    mttr: float = 3_600.0,
    recovery: str = "resubmit",
    fault_model: str = "exponential",
    cache: Optional[RunStore] = None,
    wait_method: str = "grid-max",
) -> FaultSweepResult:
    """Sweep per-node MTBF and reduce the results to risk metrics.

    Every policy sees the identical workload *and* identical failure
    history at each level (both derive from ``base.seed``), preserving the
    paper's controlled-comparison discipline under faults.
    """
    cache = cache if cache is not None else RunStore()
    fault_base = base.with_values(
        fault_enabled=True,
        fault_model=fault_model,
        fault_mttr=float(mttr),
        fault_recovery=recovery,
    )
    scenario = mtbf_scenario(mtbfs)
    rows: list[FaultSweepRow] = []
    for policy in policies:
        for config in scenario.configs(fault_base):
            objectives = run_single(config, policy, model_name, cache)
            rows.append(
                FaultSweepRow(
                    mtbf=config.faults.mtbf,
                    availability=config.faults.availability,
                    policy=policy,
                    objectives=objectives,
                )
            )
    separate = run_scenario(
        scenario, policies, model_name, fault_base, cache, wait_method
    )
    integrated = {
        policy: integrated_risk(
            {o: separate[o][policy] for o in OBJECTIVES}
        )
        for policy in policies
    }
    return FaultSweepResult(
        model=model_name,
        recovery=recovery,
        mttr=float(mttr),
        policies=tuple(policies),
        mtbfs=tuple(float(v) for v in mtbfs),
        rows=rows,
        separate=separate,
        integrated=integrated,
    )


# -- correlated availability vs risk ------------------------------------------


@dataclass(frozen=True)
class CorrelatedSweepRow:
    """Raw objectives of one policy at one cascade-probability level."""

    cascade_prob: float
    policy: str
    objectives: ObjectiveSet


@dataclass
class CorrelatedSweepResult:
    """Everything one correlated-availability-vs-risk sweep produces."""

    model: str
    recovery: str
    domain_size: int
    domain_mtbf: float
    domain_mttr: float
    policies: tuple[str, ...]
    cascade_probs: tuple[float, ...]
    rows: list[CorrelatedSweepRow]
    separate: dict[Objective, dict[str, SeparateRisk]]
    integrated: dict[str, IntegratedRisk]

    def table(self) -> str:
        """The correlation-vs-risk table, ready to print."""
        lines = [
            f"Correlated-fault sweep — model={self.model} "
            f"recovery={self.recovery} racks of {self.domain_size} "
            f"rack-MTBF={self.domain_mtbf / 3600:g}h "
            f"rack-MTTR={self.domain_mttr / 3600:g}h",
            "",
            f"{'cascade':>8} {'policy':<14} "
            f"{'wait':>8} {'sla':>8} {'reliab':>8} {'profit':>10}",
        ]
        for row in self.rows:
            o = row.objectives
            lines.append(
                f"{row.cascade_prob:>8.2f} {row.policy:<14} "
                f"{o.wait:>8.3f} {o.sla:>8.3f} "
                f"{o.reliability:>8.3f} {o.profitability:>10.1f}"
            )
        lines.append("")
        lines.append(
            f"{'policy':<14} {'performance':>12} {'volatility':>11}   "
            "(integrated risk over the sweep, equal weights)"
        )
        for policy in self.policies:
            risk = self.integrated[policy]
            lines.append(
                f"{policy:<14} {risk.performance:>12.4f} {risk.volatility:>11.4f}"
            )
        return "\n".join(lines)


def run_correlated_sweep(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    cascade_probs: Sequence[float] = CASCADE_PROB_LEVELS,
    domain_size: int = 8,
    domain_mtbf: float = 86_400.0,
    domain_mttr: float = 3_600.0,
    cascade_delay: float = 30.0,
    mtbf: float = 345_600.0,
    mttr: float = 3_600.0,
    recovery: str = "resubmit",
    cache: Optional[RunStore] = None,
    wait_method: str = "grid-max",
) -> CorrelatedSweepResult:
    """Sweep the cascade probability over a rack-structured machine.

    Level 0 is the independent baseline (per-node failures plus
    uncorrelated rack outages); rising levels correlate the failure mass
    into whole-neighbourhood events at the *same* long-run downtime per
    source, so the table isolates what correlation alone does to each
    policy's risk profile.  Every policy sees the identical workload and
    failure history at each level (both derive from ``base.seed``).
    """
    cache = cache if cache is not None else RunStore()
    fault_base = base.with_values(
        fault_enabled=True,
        fault_mtbf=float(mtbf),
        fault_mttr=float(mttr),
        fault_recovery=recovery,
        fault_domain_size=int(domain_size),
        fault_domain_mtbf=float(domain_mtbf),
        fault_domain_mttr=float(domain_mttr),
        fault_cascade_delay=float(cascade_delay),
    )
    scenario = cascade_scenario(cascade_probs)
    rows: list[CorrelatedSweepRow] = []
    for policy in policies:
        for config in scenario.configs(fault_base):
            objectives = run_single(config, policy, model_name, cache)
            rows.append(
                CorrelatedSweepRow(
                    cascade_prob=config.faults.cascade_prob,
                    policy=policy,
                    objectives=objectives,
                )
            )
    separate = run_scenario(
        scenario, policies, model_name, fault_base, cache, wait_method
    )
    integrated = {
        policy: integrated_risk(
            {o: separate[o][policy] for o in OBJECTIVES}
        )
        for policy in policies
    }
    return CorrelatedSweepResult(
        model=model_name,
        recovery=recovery,
        domain_size=int(domain_size),
        domain_mtbf=float(domain_mtbf),
        domain_mttr=float(domain_mttr),
        policies=tuple(policies),
        cascade_probs=tuple(float(v) for v in cascade_probs),
        rows=rows,
        separate=separate,
        integrated=integrated,
    )
