"""Integrated risk analysis (paper §4.2, Eqs. 7–8).

Combines the separate risk analyses of several objectives into one
(performance, volatility) pair via objective weights:

.. math::

    \\mu_{int} = \\sum_i w_i \\mu_{sep,i}, \\qquad
    \\sigma_{int} = \\sum_i w_i \\sigma_{sep,i}

with :math:`0 \\le w_i \\le 1` and :math:`\\sum_i w_i = 1`.  The paper uses
equal weights (1/3 for three objectives, 1/4 for four) but the weights are a
provider knob — see :func:`equal_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.objectives import Objective
from repro.core.separate import SeparateRisk

#: tolerance for the Σw = 1 check.
_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class IntegratedRisk:
    """(performance, volatility) of a weighted combination of objectives."""

    performance: float
    volatility: float
    objectives: tuple[Objective, ...]

    def __post_init__(self) -> None:
        if not (0.0 <= self.performance <= 1.0 + 1e-9):
            raise ValueError(f"performance out of [0,1]: {self.performance}")
        if self.volatility < -1e-12:
            raise ValueError(f"negative volatility: {self.volatility}")


def equal_weights(objectives: Sequence[Objective]) -> dict[Objective, float]:
    """Equal importance for every objective (the paper's experiments)."""
    if not objectives:
        raise ValueError("need at least one objective")
    w = 1.0 / len(objectives)
    return {obj: w for obj in objectives}


def integrated_risk(
    separate: Mapping[Objective, SeparateRisk],
    weights: Mapping[Objective, float] | None = None,
) -> IntegratedRisk:
    """Compute Eqs. 7–8 from per-objective separate risk analyses.

    Parameters
    ----------
    separate:
        The separate risk analysis of each objective to combine.
    weights:
        Importance weights; defaults to equal weights over the objectives
        present.  Must be non-negative and sum to 1 over exactly the
        objectives in ``separate``.
    """
    if not separate:
        raise ValueError("integrated risk analysis needs at least one objective")
    objectives = tuple(separate.keys())
    if weights is None:
        weights = equal_weights(objectives)
    if set(weights) != set(objectives):
        raise ValueError(
            f"weights must cover exactly the analysed objectives; "
            f"got {sorted(o.value for o in weights)} vs {sorted(o.value for o in objectives)}"
        )
    total = 0.0
    for obj, w in weights.items():
        if w < 0.0 or w > 1.0:
            raise ValueError(f"weight for {obj.value} out of [0,1]: {w}")
        total += w
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        raise ValueError(f"weights must sum to 1, got {total}")

    mu = math.fsum(weights[obj] * separate[obj].performance for obj in objectives)
    sigma = math.fsum(weights[obj] * separate[obj].volatility for obj in objectives)
    return IntegratedRisk(
        performance=float(mu), volatility=float(sigma), objectives=objectives
    )
