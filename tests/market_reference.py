"""The per-object user population, kept as the cohort's parity reference.

:class:`UserAgent` is one service user with a dict of per-provider
satisfaction scores and a bounded outcome history; :class:`AgentPopulation`
is a list of them behind the same protocol as
:class:`~repro.market.cohort.UserCohort` (``choose``, ``apply``,
``apply_batch``, ``outcome_counts``, ``preferred_counts``, ``scores_row``).
Every operation routes through the shared scalar primitives of
:mod:`repro.market.user` (:func:`softmax_pick`, :func:`score_outcome`, the
``(1-lr)·old + lr·score`` fold), which is the parity contract the cohort
is held to.

Parity tests run the real :class:`~repro.market.marketplace.Marketplace`
on this population by monkeypatching its ``UserCohort`` name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.market.user import (
    KIND_FULFILLED,
    KIND_REJECTED,
    KIND_VIOLATED,
    OUTCOME_KINDS,
    SatisfactionParams,
    score_outcome,
    softmax_pick,
)
from repro.service.sla import SLARecord

#: Default bound on a user's outcome history: only the most recent
#: outcomes are retained (``history_limit=0`` disables recording).
DEFAULT_HISTORY_LIMIT = 256


def outcome_kind(accepted: bool, deadline_met: bool) -> int:
    """The ``KIND_*`` code of one resolved outcome."""
    if not accepted:
        return KIND_REJECTED
    return KIND_FULFILLED if deadline_met else KIND_VIOLATED


@dataclass
class UserAgent:
    """One service user in the market."""

    user_id: int
    providers: tuple[str, ...]
    params: SatisfactionParams = field(default_factory=SatisfactionParams)
    scores: dict[str, float] = field(default_factory=dict)
    #: bounded recent-outcome trail, newest last; ``history_limit=0``
    #: disables recording.
    history: deque = field(default_factory=deque)
    history_limit: int = DEFAULT_HISTORY_LIMIT

    def __post_init__(self) -> None:
        if not self.providers:
            raise ValueError(f"user {self.user_id} needs at least one provider")
        if self.history_limit < 0:
            raise ValueError("history_limit cannot be negative")
        for name in self.providers:
            self.scores.setdefault(name, self.params.initial_score)
        self.history = deque(self.history, maxlen=self.history_limit)

    def choose_provider(self, rng: np.random.Generator) -> str:
        """Softmax draw over current satisfaction scores."""
        row = [self.scores[p] for p in self.providers]
        idx = softmax_pick(row, self.params.temperature, float(rng.random()))
        return self.providers[idx]

    def outcome_score(self, record: SLARecord) -> float:
        """Score one resolved SLA record (see :func:`score_outcome`)."""
        wait = (record.start_time or record.job.submit_time) - record.job.submit_time
        return score_outcome(
            self.params, record.accepted, record.deadline_met, wait,
            record.job.deadline,
        )

    def observe_outcome(self, provider: str, score: float, kind: str) -> None:
        """Fold one pre-scored outcome into the provider's satisfaction:
        one EWMA fold, the exact scalar operation the cohort vectorizes."""
        if provider not in self.scores:
            raise KeyError(f"user {self.user_id} does not know provider {provider!r}")
        lr = self.params.learning_rate
        self.scores[provider] = (1.0 - lr) * self.scores[provider] + lr * score
        if self.history_limit:
            self.history.append((provider, kind))

    def observe(self, provider: str, record: SLARecord) -> None:
        """Fold one outcome into the provider's satisfaction score."""
        kind = OUTCOME_KINDS[outcome_kind(record.accepted, record.deadline_met)]
        self.observe_outcome(provider, self.outcome_score(record), kind)

    def preferred_provider(self) -> str:
        """The provider this user currently trusts most."""
        return max(self.providers, key=lambda p: (self.scores[p], p))


class AgentPopulation:
    """A market's users as a list of :class:`UserAgent` objects."""

    def __init__(
        self,
        n_users: int,
        providers: Sequence[str],
        params: Optional[SatisfactionParams] = None,
        history_limit: int = DEFAULT_HISTORY_LIMIT,
    ) -> None:
        if n_users < 1:
            raise ValueError("a population needs at least one user")
        if not providers:
            raise ValueError("a population needs at least one provider")
        self.providers = tuple(providers)
        self.params = params if params is not None else SatisfactionParams()
        self.n_users = int(n_users)
        self.agents = [
            UserAgent(user_id=i, providers=self.providers, params=self.params,
                      history_limit=history_limit)
            for i in range(self.n_users)
        ]
        self._counts = [[0, 0, 0] for _ in self.providers]
        self._temp = self.params.temperature

    def choose(self, user: int, u: float) -> int:
        agent = self.agents[user]
        row = [agent.scores[p] for p in self.providers]
        return softmax_pick(row, self._temp, u)

    def apply(self, user: int, provider: int, score: float, kind: int) -> None:
        self.agents[user].observe_outcome(
            self.providers[provider], score, OUTCOME_KINDS[kind]
        )
        self._counts[provider][kind] += 1

    def apply_batch(
        self, entries: Iterable[tuple[int, int, float, int]]
    ) -> None:
        apply = self.apply
        for user, provider, score, kind in entries:
            apply(user, provider, score, kind)

    @property
    def outcome_counts(self) -> dict[str, dict[str, int]]:
        return {
            name: dict(zip(OUTCOME_KINDS, self._counts[i]))
            for i, name in enumerate(self.providers)
        }

    def preferred_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self.providers}
        for agent in self.agents:
            counts[agent.preferred_provider()] += 1
        return counts

    def scores_row(self, user: int) -> list[float]:
        agent = self.agents[user]
        return [agent.scores[p] for p in self.providers]
