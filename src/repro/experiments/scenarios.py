"""The Table VI scenario grid.

Twelve scenarios, each varying exactly one knob over six values while every
other knob stays at its default:

===========================  =============================================
Scenario                     Varying values
===========================  =============================================
job mix (% high urgency)     0, 20, 40, 60, 80, 100
workload (arrival factor)    0.02, 0.10, 0.25, 0.50, 0.75, 1.00
inaccuracy (% of estimates)  0, 20, 40, 60, 80, 100
deadline/budget/penalty      bias: 1, 2, 4, 6, 8, 10
deadline/budget/penalty      high:low ratio: 1, 2, 4, 6, 8, 10
deadline/budget/penalty      low-value mean: 1, 2, 4, 6, 8, 10
===========================  =============================================

The text dump of the paper loses Table VI's underlines that marked the
default value of each column, so the defaults here follow the IPDPS'07
version's conventions: 20 % high urgency, arrival-delay factor 0.25 (heavy
load), bias 2, high:low ratio 4, low-value mean 4, and inaccuracy 0 %
(Set A) or 100 % (Set B).  Every default is a plain field of
:class:`ExperimentConfig`, so alternative readings of the table are one
``replace()`` away.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.faults.config import NO_FAULTS, FaultConfig
from repro.workload.qos import QoSParameter, QoSSpec

#: the six varying values shared by the bias / ratio / low-mean scenarios.
SIX_LEVELS = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified simulation setting (one point of one scenario)."""

    # -- workload scale ----------------------------------------------------
    n_jobs: int = 5000
    total_procs: int = 128
    seed: int = 0
    # -- Table VI knobs ----------------------------------------------------
    pct_high_urgency: float = 20.0
    arrival_delay_factor: float = 0.25
    inaccuracy_pct: float = 0.0
    deadline_bias: float = 2.0
    budget_bias: float = 2.0
    penalty_bias: float = 2.0
    deadline_ratio: float = 4.0
    budget_ratio: float = 4.0
    penalty_ratio: float = 4.0
    deadline_low_mean: float = 4.0
    budget_low_mean: float = 4.0
    penalty_low_mean: float = 4.0
    # -- dependability (disabled by default: the paper's failure-free SP2) --
    faults: FaultConfig = NO_FAULTS

    def qos_spec(self) -> QoSSpec:
        """The QoS synthesis spec this configuration induces."""
        return QoSSpec(
            pct_high_urgency=self.pct_high_urgency,
            deadline=QoSParameter(
                low_mean=self.deadline_low_mean,
                high_low_ratio=self.deadline_ratio,
                bias=self.deadline_bias,
            ),
            budget=QoSParameter(
                low_mean=self.budget_low_mean,
                high_low_ratio=self.budget_ratio,
                bias=self.budget_bias,
            ),
            penalty=QoSParameter(
                low_mean=self.penalty_low_mean,
                high_low_ratio=self.penalty_ratio,
                bias=self.penalty_bias,
            ),
        )

    def with_values(self, **kwargs) -> "ExperimentConfig":
        """``replace`` plus virtual ``fault_*`` fields.

        ``fault_mtbf=…`` rewrites ``faults.mtbf`` (and implies
        ``enabled=True``), so fault knobs sweep exactly like any Table VI
        knob — which is what lets :class:`Scenario` vary MTBF.
        """
        fault_kwargs = {
            k[len("fault_"):]: v for k, v in kwargs.items() if k.startswith("fault_")
        }
        if fault_kwargs:
            kwargs = {k: v for k, v in kwargs.items() if not k.startswith("fault_")}
            fault_kwargs.setdefault("enabled", True)
            kwargs["faults"] = self.faults.with_values(**fault_kwargs)
        return replace(self, **kwargs)

    def for_set(self, set_name: str) -> "ExperimentConfig":
        """Set A: accurate estimates (0 % inaccuracy); Set B: trace
        estimates (100 %)."""
        if set_name not in ("A", "B"):
            raise ValueError(f"set must be 'A' or 'B', got {set_name!r}")
        return replace(self, inaccuracy_pct=0.0 if set_name == "A" else 100.0)

    def key(self) -> tuple:
        """Hashable identity for run caching."""
        return tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Scenario:
    """One row of Table VI: a named knob and its six varying values."""

    name: str
    field_name: str
    values: tuple[float, ...]

    def configs(self, base: ExperimentConfig) -> list[ExperimentConfig]:
        """The six configurations of this scenario around ``base``.

        The varied knob overrides the base even when the base sets a
        non-default value there (e.g. Set B's inaccuracy default of 100 % is
        still swept 0→100 in the inaccuracy scenario).
        """
        return [base.with_values(**{self.field_name: v}) for v in self.values]

    def labels(self) -> list[str]:
        return [f"{self.name}={v:g}" for v in self.values]


#: all twelve scenarios of Table VI, in its column order.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario("job mix", "pct_high_urgency", (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)),
    Scenario("workload", "arrival_delay_factor", (0.02, 0.10, 0.25, 0.50, 0.75, 1.00)),
    Scenario("inaccuracy", "inaccuracy_pct", (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)),
    Scenario("deadline bias", "deadline_bias", SIX_LEVELS),
    Scenario("budget bias", "budget_bias", SIX_LEVELS),
    Scenario("penalty bias", "penalty_bias", SIX_LEVELS),
    Scenario("deadline ratio", "deadline_ratio", SIX_LEVELS),
    Scenario("budget ratio", "budget_ratio", SIX_LEVELS),
    Scenario("penalty ratio", "penalty_ratio", SIX_LEVELS),
    Scenario("deadline low mean", "deadline_low_mean", SIX_LEVELS),
    Scenario("budget low mean", "budget_low_mean", SIX_LEVELS),
    Scenario("penalty low mean", "penalty_low_mean", SIX_LEVELS),
)


def scenario_by_name(name: str) -> Scenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    raise ValueError(
        f"unknown scenario {name!r}; choose from {[s.name for s in SCENARIOS]}"
    )
