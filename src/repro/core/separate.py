"""Separate risk analysis (paper §4.1, Eqs. 5–6).

For one objective and one scenario (a sweep of n varying values with all
other settings fixed), the *performance* of a policy is the mean of its n
normalized results and the *volatility* (the risk measure) is their
population standard deviation:

.. math::

    \\mu_{sep} = \\frac{1}{n}\\sum_i r_i, \\qquad
    \\sigma_{sep} = \\sqrt{\\frac{1}{n}\\sum_i r_i^2 - \\mu_{sep}^2}

with each normalized result :math:`0 \\le r_i \\le 1`.  The volatility is
the same quantity computed without the cancellation of the difference of
squares: from the deviations :math:`d_i = r_i - r_1`, as
:math:`\\sqrt{\\frac{1}{n}\\sum_i (d_i - \\bar d)^2}`, so identical results
give exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class SeparateRisk:
    """(performance, volatility) of one objective in one scenario.

    A *gap* — a cell whose runs are missing in a degraded grid assembly —
    is the single NaN/NaN pair (:meth:`gap`); any other non-finite or
    out-of-range value is rejected.
    """

    performance: float
    volatility: float

    def __post_init__(self) -> None:
        if math.isnan(self.performance) and math.isnan(self.volatility):
            return  # explicit gap marker, see gap()
        if not (0.0 <= self.performance <= 1.0 + 1e-9):
            raise ValueError(f"performance out of [0,1]: {self.performance}")
        if self.volatility < -1e-12:
            raise ValueError(f"negative volatility: {self.volatility}")

    @classmethod
    def gap(cls) -> "SeparateRisk":
        """The explicit missing-cell marker of a degraded grid."""
        return cls(performance=float("nan"), volatility=float("nan"))

    @property
    def is_gap(self) -> bool:
        return math.isnan(self.performance)


def separate_risk(normalized_results: Iterable[float]) -> SeparateRisk:
    """Compute Eqs. 5–6 over the normalized results of one scenario.

    Raises
    ------
    ValueError
        If the input is empty or any result falls outside [0, 1].
    """
    arr = np.asarray(list(normalized_results), dtype=float)
    if arr.size == 0:
        raise ValueError("separate risk analysis needs at least one result")
    if not np.all(np.isfinite(arr)):
        raise ValueError("normalized results must be finite")
    if arr.min() < -1e-9 or arr.max() > 1.0 + 1e-9:
        raise ValueError(f"normalized results must lie in [0,1], got {arr!r}")
    mu = float(arr.mean())
    # Population variance of the deviations from the first result (Eq. 6).
    # A constant list has all-zero deviations, so its variance is exactly
    # 0; x - mu would not be, since mu need not round to the common value.
    dev = arr - arr[0]
    dev -= math.fsum(dev) / arr.size
    var = math.fsum(dev * dev) / arr.size
    return SeparateRisk(performance=mu, volatility=math.sqrt(var))
