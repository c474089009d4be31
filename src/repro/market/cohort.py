"""Population-level user cohorts: millions of users as one array.

A per-object user agent tops out at toy populations — a dict of scores
and a Python object per user is hopeless at "millions of users" scale.
A :class:`UserCohort` stores the whole population's satisfaction state as
a single ``(n_users × n_providers)`` float64 array and applies outcome
feedback in vectorized batches, so memory is 8 bytes per (user, provider)
pair and the EWMA work per sampling window is a handful of numpy
gathers/scatters.

**Parity contract.**  The cohort is not an approximation of per-object
agents — it is bit-identical to them at every population size: same
seeds, same trajectory, bitwise-equal scores.  Three rules make it so:

- neither population draws anything itself; the marketplace owns every
  random number and hands the population one ``(user, u)`` pair per choice;
- choices route through the shared scalar
  :func:`repro.market.user.softmax_pick` on plain Python floats;
- the EWMA fold is ``(1-lr)·old + lr·score`` in IEEE double either way:
  the cohort vectorizes only (user, provider) pairs that appear *once* in
  a batch — elementwise identical to the scalar op — and replays the rare
  repeated pairs scalar-and-in-order.

``tests/test_market_cohort.py`` holds the cohort to this contract against
the per-agent reference population kept in ``tests/market_reference.py``
(exact for any population size, plus a statistical share tolerance at
n=10³).

Cohorts keep no per-user histories — only the per-provider aggregate
outcome counts (:attr:`UserCohort.outcome_counts`), which is all the
market-level queries need.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.market.user import OUTCOME_KINDS, SatisfactionParams, softmax_pick

#: Batches smaller than this are applied scalar: the numpy array set-up
#: costs more than a short Python loop.
_VECTORIZE_THRESHOLD = 32


class UserCohort:
    """All users of a market as one satisfaction matrix.

    The population protocol the marketplace drives:

    ``choose(user, u)``
        provider index selected by uniform draw ``u`` for ``user``.
    ``apply(user, provider, score, kind)``
        fold one outcome, scalar (the lazy pre-choice path).
    ``apply_batch(entries)``
        fold ``[(user, provider, score, kind), ...]``; per-user order is
        preserved (the window-flush path).
    ``preferred_counts()``
        loyal users per provider, agent tie-break rule included.
    """

    def __init__(
        self,
        n_users: int,
        providers: Sequence[str],
        params: Optional[SatisfactionParams] = None,
    ) -> None:
        if n_users < 1:
            raise ValueError("a cohort needs at least one user")
        if not providers:
            raise ValueError("a cohort needs at least one provider")
        self.n_users = int(n_users)
        self.providers = tuple(providers)
        self.params = params if params is not None else SatisfactionParams()
        p = len(self.providers)
        self.scores = np.full((self.n_users, p), self.params.initial_score,
                              dtype=np.float64)
        #: aggregate outcome counts per provider, indexed by
        #: :data:`repro.market.user.OUTCOME_KINDS` — the only per-outcome
        #: state a cohort retains (no per-user histories).
        self._counts = [[0, 0, 0] for _ in range(p)]
        self._lr = self.params.learning_rate
        self._keep = 1.0 - self._lr
        self._temp = self.params.temperature
        # preferred_provider ties break toward the lexicographically largest
        # name (the agent's max(..., key=(score, name)) rule); scanning the
        # columns in name-descending order makes argmax's first-max-wins
        # reproduce it vectorized.
        self._pref_order = sorted(range(p), key=lambda i: self.providers[i],
                                  reverse=True)

    # -- choice ---------------------------------------------------------------
    def choose(self, user: int, u: float) -> int:
        """Provider index for one arrival (shared scalar softmax)."""
        return softmax_pick(self.scores[user].tolist(), self._temp, u)

    # -- learning -------------------------------------------------------------
    def apply(self, user: int, provider: int, score: float, kind: int) -> None:
        """Scalar EWMA fold — bitwise the agent's ``observe_outcome``."""
        s = self.scores
        s[user, provider] = self._keep * s[user, provider] + self._lr * score
        self._counts[provider][kind] += 1

    def apply_batch(
        self, entries: Sequence[tuple[int, int, float, int]]
    ) -> None:
        """Fold a window's buffered outcomes, vectorized where exact.

        A (user, provider) pair occurring once in the batch is folded by an
        elementwise gather/scatter — the same IEEE operation as the scalar
        path.  Pairs occurring multiple times are *order-sensitive*
        (EWMA composition does not commute with rounding), so those few
        entries replay scalar in their original order.
        """
        n = len(entries)
        if n == 0:
            return
        if n < _VECTORIZE_THRESHOLD:
            apply = self.apply
            for user, provider, score, kind in entries:
                apply(user, provider, score, kind)
            return
        users = np.fromiter((e[0] for e in entries), np.int64, count=n)
        provs = np.fromiter((e[1] for e in entries), np.int64, count=n)
        scores = np.fromiter((e[2] for e in entries), np.float64, count=n)
        kinds = np.fromiter((e[3] for e in entries), np.int64, count=n)
        n_prov = len(self.providers)
        pair = users * n_prov + provs
        _, inverse, counts = np.unique(pair, return_inverse=True,
                                       return_counts=True)
        single = counts[inverse] == 1
        if single.all():
            u1, p1 = users, provs
            self.scores[u1, p1] = (
                self._keep * self.scores[u1, p1] + self._lr * scores
            )
        else:
            u1, p1 = users[single], provs[single]
            self.scores[u1, p1] = (
                self._keep * self.scores[u1, p1] + self._lr * scores[single]
            )
            s = self.scores
            keep, lr = self._keep, self._lr
            for i in np.nonzero(~single)[0]:
                u, p = users[i], provs[i]
                s[u, p] = keep * s[u, p] + lr * scores[i]
        per_kind = np.bincount(provs * 3 + kinds, minlength=n_prov * 3)
        for p_idx in range(n_prov):
            row = self._counts[p_idx]
            base = p_idx * 3
            row[0] += int(per_kind[base])
            row[1] += int(per_kind[base + 1])
            row[2] += int(per_kind[base + 2])

    # -- queries --------------------------------------------------------------
    @property
    def outcome_counts(self) -> dict[str, dict[str, int]]:
        """Aggregate outcome counts per provider (fulfilled/violated/rejected)."""
        return {
            name: dict(zip(OUTCOME_KINDS, self._counts[i]))
            for i, name in enumerate(self.providers)
        }

    def preferred_index(self) -> np.ndarray:
        """Per-user index of the currently-preferred provider."""
        ordered = self.scores[:, self._pref_order]
        win = np.argmax(ordered, axis=1)
        order = np.asarray(self._pref_order, dtype=np.int64)
        return order[win]

    def preferred_counts(self) -> dict[str, int]:
        """How many users currently prefer each provider."""
        won = np.bincount(self.preferred_index(), minlength=len(self.providers))
        return {name: int(won[i]) for i, name in enumerate(self.providers)}

    def scores_row(self, user: int) -> list[float]:
        """One user's satisfaction scores (plain floats, provider order)."""
        return self.scores[user].tolist()
