"""The four essential objectives of a commercial computing service (paper §3).

=============  ===============  ==========================================
Objective      Focus            Measurement
=============  ===============  ==========================================
wait           user-centric     Eq. 1 — mean(t_start − t_submit) over jobs
                                with SLA fulfilled (seconds; lower better)
SLA            user-centric     Eq. 2 — n_SLA / m × 100 (%; higher better)
reliability    user-centric     Eq. 3 — n_SLA / n × 100 (%; higher better)
profitability  provider-centric Eq. 4 — Σ utility / Σ budget × 100
                                (%; higher better)
=============  ===============  ==========================================

with m = jobs submitted, n = jobs accepted, n_SLA = jobs whose SLA (deadline)
was fulfilled.  The measurement consumes :class:`JobOutcome` records produced
by :mod:`repro.service` — or hand-built, which is how the unit tests and the
sample figures drive it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional


class Objective(enum.Enum):
    """Identifier for one of the four objectives (Table I)."""

    WAIT = "wait"
    SLA = "SLA"
    RELIABILITY = "reliability"
    PROFITABILITY = "profitability"

    @property
    def user_centric(self) -> bool:
        return self is not Objective.PROFITABILITY

    @property
    def lower_is_better(self) -> bool:
        return self is Objective.WAIT


#: Canonical iteration order (Table I).
OBJECTIVES: tuple[Objective, ...] = (
    Objective.WAIT,
    Objective.SLA,
    Objective.RELIABILITY,
    Objective.PROFITABILITY,
)


class JobOutcome(NamedTuple):
    """Final per-job record of one simulation run.

    ``utility`` is the amount the provider actually earned for the job under
    the active economic model (0 for rejected jobs; may be negative in the
    bid-based model once penalties exceed the budget).

    An immutable named tuple rather than a frozen dataclass: every run
    builds one per job, and a tuple builds several times faster.
    """

    job_id: int
    submit_time: float
    budget: float
    accepted: bool
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    deadline_met: bool = False
    utility: float = 0.0

    @property
    def sla_fulfilled(self) -> bool:
        """An SLA is fulfilled iff the job was accepted and met its deadline."""
        return self.accepted and self.deadline_met

    @property
    def wait_time(self) -> Optional[float]:
        """``t_start − t_submit`` (Eq. 1 numerator), if the job started."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time


@dataclass(frozen=True)
class ObjectiveSet:
    """Raw values of the four objectives for one simulation run.

    ``wait`` is in seconds (0 is ideal); the other three are percentages in
    [0, 100] (100 is ideal) — except ``profitability`` which the bid-based
    penalty can drive negative.
    """

    wait: float
    sla: float
    reliability: float
    profitability: float

    def value(self, objective: Objective) -> float:
        return {
            Objective.WAIT: self.wait,
            Objective.SLA: self.sla,
            Objective.RELIABILITY: self.reliability,
            Objective.PROFITABILITY: self.profitability,
        }[objective]

    def as_dict(self) -> dict:
        return {obj.value: self.value(obj) for obj in OBJECTIVES}


def compute_objectives(outcomes: Iterable[JobOutcome]) -> ObjectiveSet:
    """Measure the four objectives from per-job outcomes (Eqs. 1–4).

    Edge cases follow the equations' limits: with no SLA-fulfilled job the
    wait objective is 0 (its ideal minimum — nothing waited) and SLA is 0;
    with no accepted job reliability is 100 (no accepted SLA was broken);
    with zero total budget profitability is 0.
    """
    outcomes = list(outcomes)
    m = len(outcomes)
    accepted = [o for o in outcomes if o.accepted]
    fulfilled = [o for o in accepted if o.sla_fulfilled]
    n = len(accepted)
    n_sla = len(fulfilled)

    if n_sla:
        waits = [o.wait_time for o in fulfilled]
        if any(w is None for w in waits):
            raise ValueError("an SLA-fulfilled outcome is missing its start time")
        wait = math.fsum(waits) / n_sla  # type: ignore[arg-type]
    else:
        wait = 0.0

    sla = 100.0 * n_sla / m if m else 0.0
    reliability = 100.0 * n_sla / n if n else 100.0

    total_budget = math.fsum(o.budget for o in outcomes)
    total_utility = math.fsum(o.utility for o in accepted)
    profitability = 100.0 * total_utility / total_budget if total_budget > 0 else 0.0

    if math.isnan(wait) or math.isnan(profitability):  # pragma: no cover
        raise ValueError("objective computation produced NaN")
    return ObjectiveSet(wait=wait, sla=sla, reliability=reliability, profitability=profitability)
