"""Fault sweeps: dependability as a risk factor (availability vs risk).

The paper evaluates its policies on a failure-free SDSC SP2; these
experiments ask how each policy's risk profile degrades when nodes fail.
A fault sweep is a one-scenario grid: one fault knob is swept over a few
levels exactly like a Table VI scenario (the virtual ``fault_*`` fields of
:meth:`~repro.experiments.scenarios.ExperimentConfig.with_values` make
fault knobs first-class scenario knobs) around a *fault base* whose other
fault parameters stay fixed.  Two knobs ship ready-made:

- :func:`mtbf_scenario` sweeps the per-node MTBF; each level's
  steady-state availability ``MTBF / (MTBF + MTTR)`` labels the row.
- :func:`cascade_scenario` sweeps the cascade probability over a
  rack-structured machine
  (:data:`~repro.faults.config.CORRELATED_FAULTS`): level 0 is the
  independent baseline, rising levels correlate the same failure mass
  into whole-neighbourhood events.

Planning, execution and reduction are the grid pipeline's own:
:func:`~repro.experiments.pipeline.grid_plan` over ``[scenario]``,
:func:`~repro.experiments.pipeline.execute_plan` (supervision, pool,
shards, resume against the run store), and
:func:`~repro.experiments.pipeline.assemble_grid` for the separate risk
(§4.1 normalisation, Eqs. 5–6).  :func:`assemble_fault_sweep` adds the
raw objectives per level and the equal-weight integrated risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.integrated import IntegratedRisk, integrated_risk
from repro.core.objectives import OBJECTIVES, Objective, ObjectiveSet
from repro.core.separate import SeparateRisk
from repro.experiments.pipeline import assemble_grid, execute_plan, grid_plan
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, Scenario
from repro.faults.config import FaultConfig

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
    """Raw objectives of one policy at one level of the swept knob."""

    level: float
    #: configured per-node availability, MTBF / (MTBF + MTTR).
    availability: float
    policy: str
    objectives: ObjectiveSet


@dataclass
class FaultSweepResult:
    """Everything one fault sweep produces."""

    model: str
    scenario: Scenario
    #: the fault parameters held fixed around the swept knob.
    faults: FaultConfig
    policies: tuple[str, ...]
    rows: list[FaultSweepRow]
    #: separate risk per objective per policy, reduced over the sweep axis.
    separate: dict[Objective, dict[str, SeparateRisk]]
    #: equal-weight integration of all four objectives per policy.
    integrated: dict[str, IntegratedRisk]

    def table(self) -> str:
        """The availability-vs-risk table, ready to print."""
        faults = self.faults
        header = (
            f"{self.scenario.name} sweep — model={self.model} "
            f"recovery={faults.recovery} MTTR={faults.mttr / 3600:g}h"
        )
        if faults.domain_size:
            header += (
                f" racks of {faults.domain_size} "
                f"rack-MTBF={faults.domain_mtbf / 3600:g}h "
                f"rack-MTTR={faults.domain_mttr / 3600:g}h"
            )
        lines = [
            header,
            "",
            f"{self.scenario.name:>8} {'avail':>7} {'policy':<14} "
            f"{'wait':>8} {'sla':>8} {'reliab':>8} {'profit':>10}",
        ]
        for row in self.rows:
            o = row.objectives
            lines.append(
                f"{_fmt_level(self.scenario.field_name, row.level):>8} "
                f"{row.availability:>7.4f} {row.policy:<14} {o.wait:>8.3f} "
                f"{o.sla:>8.3f} {o.reliability:>8.3f} {o.profitability:>10.1f}"
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


def _fmt_level(knob: str, level: float) -> str:
    """Durations print in hours, everything else as a 2-decimal value."""
    if knob.endswith(("mtbf", "mttr")):
        return f"{level / 3600:.4g}h"
    return f"{level:.2f}"


def assemble_fault_sweep(
    store: RunStore,
    policies: Sequence[str],
    model_name: str,
    fault_base: ExperimentConfig,
    scenario: Scenario,
    set_name: str = "A",
    wait_method: str = "grid-max",
) -> FaultSweepResult:
    """Reduce a populated store to a :class:`FaultSweepResult`.

    Purely a read, like :func:`~repro.experiments.pipeline.assemble_grid`
    (which supplies the separate risk and raises
    :class:`~repro.experiments.runstore.StoreError` when runs are absent).
    Rows run policy by policy, each over the sweep's levels.
    """
    grid = assemble_grid(
        store, policies, model_name, fault_base, set_name, [scenario], wait_method
    )
    separate = {
        objective: {
            policy: grid.separate[objective][policy][scenario.name]
            for policy in policies
        }
        for objective in Objective
    }
    configs = scenario.configs(fault_base.for_set(set_name))
    rows = [
        FaultSweepRow(
            level=level,
            availability=config.faults.availability,
            policy=policy,
            objectives=store.get(config, policy, model_name),
        )
        for policy in policies
        for level, config in zip(scenario.values, configs)
    ]
    integrated = {
        policy: integrated_risk({o: separate[o][policy] for o in OBJECTIVES})
        for policy in policies
    }
    return FaultSweepResult(
        model=model_name,
        scenario=scenario,
        faults=fault_base.faults,
        policies=tuple(policies),
        rows=rows,
        separate=separate,
        integrated=integrated,
    )


def run_fault_sweep(
    policies: Sequence[str],
    model_name: str,
    fault_base: ExperimentConfig,
    scenario: Scenario,
    store: Optional[RunStore] = None,
    set_name: str = "A",
) -> FaultSweepResult:
    """Sweep one fault knob and reduce the results to risk metrics.

    ``fault_base`` carries the fixed fault parameters, e.g.
    ``base.with_values(fault_mttr=3600.0, fault_recovery="checkpoint")``;
    ``scenario`` varies one of them (:func:`mtbf_scenario`,
    :func:`cascade_scenario`, or any ``fault_*`` :class:`Scenario`).
    ``set_name`` selects the estimate set as for
    :func:`~repro.experiments.runner.run_grid`.  Every policy sees the
    identical workload *and* identical failure history at each level
    (both derive from ``fault_base.seed``), preserving the paper's
    controlled-comparison discipline under faults.
    """
    store = store if store is not None else RunStore()
    execute_plan(grid_plan(policies, model_name, fault_base, set_name, [scenario]), store)
    return assemble_fault_sweep(
        store, policies, model_name, fault_base, scenario, set_name
    )
