"""Service users with satisfaction memory.

Each user keeps an exponentially weighted satisfaction score per provider,
updated from the outcomes of their own jobs — the service-management loop
the paper cites (§2: "customer satisfaction affects customer loyalty, which
in turn may lead to referrals of new customers").

Outcome scoring mirrors the paper's three user-centric objectives:

- *rejected*: the request wasn't served at all — strong negative,
- *SLA violated*: accepted but late — the worst outcome (trust broken),
- *fulfilled*: positive, discounted by how long acceptance kept the user
  waiting relative to the job's deadline (the wait objective).

Provider choice is a softmax over scores, so a consistently disappointing
provider loses traffic gradually rather than instantaneously — users still
probe it occasionally (imperfect information, as in real markets).

The population itself is :class:`repro.market.cohort.UserCohort`; this
module holds the scalar scoring and choice primitives
(:func:`score_outcome`, :func:`softmax_pick`) it routes every outcome and
choice through.  They are also the *parity contract* with the per-object
reference population the tests keep (``tests/market_reference.py``): both
perform the same floating-point operations, which is what makes
cohort-vs-agent runs bit-identical (see ``docs/market.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: Outcome kinds in severity order; cohort aggregates index into this
#: tuple (``KIND_*`` below are the integer codes).
OUTCOME_KINDS: tuple[str, ...] = ("fulfilled", "violated", "rejected")
KIND_FULFILLED, KIND_VIOLATED, KIND_REJECTED = 0, 1, 2


@dataclass(frozen=True)
class SatisfactionParams:
    """Scoring and choice behaviour of a user population."""

    #: EWMA memory: weight of the newest outcome.
    learning_rate: float = 0.3
    #: score contributions per outcome.
    fulfilled_reward: float = 1.0
    rejected_penalty: float = -1.0
    violated_penalty: float = -2.0
    #: fraction of the fulfilled reward forfeited when the wait consumed the
    #: whole deadline window.
    wait_discount: float = 0.5
    #: softmax temperature: lower = greedier switching.
    temperature: float = 0.25
    #: score every provider starts with (benefit of the doubt).
    initial_score: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning rate must be in (0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")


def score_outcome(
    params: SatisfactionParams,
    accepted: bool,
    deadline_met: bool,
    wait: float,
    deadline: float,
) -> float:
    """Score one resolved outcome (see module docstring).

    Takes the outcome's raw facts instead of an :class:`SLARecord` so both
    the real service providers and the O(1) synthetic providers
    (:mod:`repro.market.provider`) can price outcomes identically.
    """
    if not accepted:
        return params.rejected_penalty
    if not deadline_met:
        return params.violated_penalty
    reward = params.fulfilled_reward
    if deadline > 0 and wait > 0 and not math.isinf(deadline):
        fraction = min(wait / deadline, 1.0)
        reward -= params.wait_discount * reward * fraction
    return reward


def softmax_pick(scores: Sequence[float], temperature: float, u: float) -> int:
    """Inverse-CDF softmax draw: the index selected by uniform ``u``.

    This is *the* choice primitive of the market.  The cohort and the
    tests' per-agent reference both call it with plain Python floats and
    an externally drawn ``u`` in [0, 1), so a cohort run and an agent run
    consume identical randomness and perform identical arithmetic — the
    bitwise parity contract.
    """
    m = scores[0]
    for s in scores:
        if s > m:
            m = s
    inv_t = 1.0 / temperature
    total = 0.0
    weights = []
    for s in scores:
        w = math.exp((s - m) * inv_t)
        weights.append(w)
        total += w
    target = u * total
    acc = 0.0
    last = len(weights) - 1
    for i, w in enumerate(weights):
        acc += w
        if target < acc:
            return i
    return last  # u == 1.0 - eps rounding: clamp to the final index
