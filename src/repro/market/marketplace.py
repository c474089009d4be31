"""The competitive marketplace: several providers, one job stream.

Each arriving job belongs to a user; the user picks a provider by current
satisfaction, the provider decides the SLA, and the outcome — whenever it
resolves — feeds back into that user's satisfaction.  Because everything
runs on one simulator, the feedback loop operates *in simulated time*: a
provider that burns users early loses the later traffic.

Population-scale design (see ``docs/market.md``):

- **Streaming arrivals.**  ``run()`` accepts any iterable of jobs sorted
  by submit time and feeds them through one self-rescheduling pump event,
  so a 10⁶-job generator stream needs O(1) scheduling memory instead of a
  pre-scheduled FEL event per job.
- **One user cohort.**  Satisfaction state lives in the vectorized
  :class:`~repro.market.cohort.UserCohort`.  The marketplace owns every
  random draw (user assignment and the choice uniform come from
  dedicated, buffered substreams), so the per-agent reference population
  the tests substitute for it replays identical trajectories.
- **Window-batched feedback.**  Outcomes are buffered per user and folded
  in bulk when a sampling window closes; a user with buffered feedback who
  arrives *before* the flush has it applied (in order) right before their
  choice.  Since a choice reads only the chooser's score row and rows are
  independent, this lazy schedule is trajectory-equivalent to eager
  per-resolution ``observe()`` while doing the bulk of the EWMA work
  vectorized.
- **Provider fidelities.**  A :class:`ProviderSpec` backs a competitor
  with a real :class:`~repro.service.provider.CommercialComputingService`
  (full policy/cluster stack); a
  :class:`~repro.market.provider.SyntheticSpec` backs it with the O(1)
  fluid-queue model.  The two kinds mix freely in one market.

Outputs: per-provider submission/acceptance/violation counts, revenue, and
a market-share time series sampled per submission window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.economy.models import make_model
from repro.market.cohort import UserCohort
from repro.market.provider import OutageTimeline, SyntheticProvider, SyntheticSpec
from repro.market.user import (
    KIND_FULFILLED,
    KIND_REJECTED,
    KIND_VIOLATED,
    SatisfactionParams,
    score_outcome,
)
from repro.perf.registry import PERF
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from repro.service.sla import SLARecord
from repro.sim.engine import Simulator
from repro.sim.events import Priority
from repro.sim.rng import RngStreams
from repro.workload.job import Job

#: Buffered-draw chunk: one numpy call refills this many assignment or
#: choice draws (per-event Generator calls dominate otherwise).
_DRAW_CHUNK = 4096


@dataclass(frozen=True)
class ProviderSpec:
    """One competitor: a policy on a market, with its own cluster."""

    name: str
    policy: str
    model: str = "bid"
    total_procs: int = 64
    policy_kwargs: dict = field(default_factory=dict)


@dataclass
class MarketShareSample:
    """Submissions per provider within one sampling window."""

    time: float
    submissions: dict[str, int]

    def share(self, provider: str) -> float:
        total = sum(self.submissions.values())
        return self.submissions.get(provider, 0) / total if total else 0.0


@dataclass
class ProviderStats:
    submitted: int = 0
    accepted: int = 0
    fulfilled: int = 0
    violated: int = 0
    rejected: int = 0


class _ServiceAdapter:
    """Full-fidelity competitor: the real service + observer feedback."""

    fidelity = "service"

    def __init__(self, market: "Marketplace", spec: ProviderSpec, index: int):
        self.market = market
        self.index = index
        self.stats = market.stats[spec.name]
        self.service = CommercialComputingService(
            make_policy(spec.policy, **spec.policy_kwargs),
            make_model(spec.model),
            total_procs=spec.total_procs,
            sim=market.sim,
        )
        self.service.observers.append(self._observe)
        self._owner: dict[int, int] = {}  # job_id -> user index
        self.policy_label = self.service.policy.name

    def submit(self, job: Job, user: int) -> None:
        self._owner[job.job_id] = user
        self.service.submit_now(job)

    def _observe(self, event: str, record: SLARecord) -> None:
        stats = self.stats
        if event == "accepted":
            stats.accepted += 1
            return
        if event == "rejected":
            kind = KIND_REJECTED
            stats.rejected += 1
        elif event == "finished":
            if record.deadline_met:
                kind = KIND_FULFILLED
                stats.fulfilled += 1
            else:
                kind = KIND_VIOLATED
                stats.violated += 1
        else:
            return
        user = self._owner.pop(record.job.job_id, None)
        if user is None:  # pragma: no cover - defensive
            return
        market = self.market
        job = record.job
        wait = (record.start_time or job.submit_time) - job.submit_time
        score = score_outcome(
            market.params, record.accepted, record.deadline_met, wait,
            job.deadline,
        )
        market._buffer_outcome(user, self.index, score, kind)

    def revenue(self) -> float:
        return self.service.ledger.total_utility

    @property
    def provider(self) -> CommercialComputingService:
        return self.service


class _SyntheticAdapter:
    """O(1) competitor: outcome priced at submission, resolved on time."""

    fidelity = "synthetic"

    def __init__(self, market: "Marketplace", spec: SyntheticSpec, index: int):
        self.market = market
        self.index = index
        self.stats = market.stats[spec.name]
        if spec.outage_group is not None:
            # Correlated outages: every member of the group shares one
            # timeline keyed by the group name, not the provider name, so
            # membership (not identity) decides the failure instants.
            self.synthetic = SyntheticProvider(
                spec, timeline=market._outage_timeline(spec)
            )
        else:
            rng = (
                market.streams.get(f"market-fault-{spec.name}")
                if spec.mtbf is not None else None
            )
            self.synthetic = SyntheticProvider(spec, rng=rng)
        self.policy_label = f"synthetic/{spec.admission}"
        self._revenue = 0.0

    def submit(self, job: Job, user: int) -> None:
        market = self.market
        outcome = self.synthetic.submit(job, market.sim.now)
        if not outcome.accepted:
            self.stats.rejected += 1
            market._buffer_outcome(
                user, self.index, market.params.rejected_penalty, KIND_REJECTED
            )
            return
        self.stats.accepted += 1
        score = score_outcome(
            market.params, True, outcome.deadline_met, outcome.wait,
            job.deadline,
        )
        kind = KIND_FULFILLED if outcome.deadline_met else KIND_VIOLATED
        market.sim.schedule_at(
            outcome.finish, self._finish, user, score, kind, outcome.utility,
            priority=Priority.COMPLETION,
        )

    def _finish(self, user: int, score: float, kind: int, utility: float) -> None:
        if kind == KIND_FULFILLED:
            self.stats.fulfilled += 1
        else:
            self.stats.violated += 1
        self._revenue += utility
        self.market._buffer_outcome(user, self.index, score, kind)

    def revenue(self) -> float:
        return self._revenue

    @property
    def provider(self) -> SyntheticProvider:
        return self.synthetic


AnySpec = Union[ProviderSpec, SyntheticSpec]


class Marketplace:
    """A free utility-computing market (paper §3)."""

    def __init__(
        self,
        specs: Sequence[AnySpec],
        n_users: int = 20,
        params: Optional[SatisfactionParams] = None,
        seed: int = 0,
        share_window: float = 50_000.0,
    ) -> None:
        if not specs:
            raise ValueError("a market needs at least one provider")
        for spec in specs:
            if not isinstance(spec, (ProviderSpec, SyntheticSpec)):
                raise TypeError(
                    f"provider spec must be ProviderSpec or SyntheticSpec, "
                    f"got {type(spec).__name__}"
                )
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("provider names must be unique")
        if n_users < 1:
            raise ValueError("a market needs at least one user")
        if share_window <= 0:
            raise ValueError("share_window must be positive")
        self.sim = Simulator()
        self.streams = RngStreams(seed=seed)
        self.params = params if params is not None else SatisfactionParams()
        self.names: tuple[str, ...] = tuple(names)
        self.n_users = int(n_users)
        self.stats: dict[str, ProviderStats] = {n: ProviderStats() for n in names}
        #: shared outage timelines by group name (see ``SyntheticSpec``).
        self._outage_timelines: dict[str, OutageTimeline] = {}
        self._adapters = []
        for index, spec in enumerate(specs):
            if isinstance(spec, SyntheticSpec):
                adapter = _SyntheticAdapter(self, spec, index)
            else:
                adapter = _ServiceAdapter(self, spec, index)
            self._adapters.append(adapter)
        #: underlying provider objects by name (service or synthetic).
        self.providers = {
            name: adapter.provider
            for name, adapter in zip(self.names, self._adapters)
        }
        self.population = UserCohort(self.n_users, self.names, self.params)
        # Buffered feedback: user -> [(provider, score, kind), ...] in
        # resolution order; folded lazily before that user's next choice and
        # in bulk at window close.
        self._pending: dict[int, list[tuple[int, float, int]]] = {}
        self.share_window = float(share_window)
        self.share_samples: list[MarketShareSample] = []
        self._window_counts = [0] * len(self.names)
        self._window_start = 0.0
        self._stats_list = [self.stats[n] for n in self.names]
        # Market-owned randomness, buffered in chunks.
        self._assign_rng = self.streams.get("assignment")
        self._choice_rng = self.streams.get("market-choice")
        self._assign_buf: np.ndarray = np.empty(0, dtype=np.int64)
        self._assign_pos = 0
        self._choice_buf: np.ndarray = np.empty(0, dtype=np.float64)
        self._choice_pos = 0
        # perf accounting (flushed as deltas at run boundaries).
        self._n_choices = 0
        self._n_outcomes = 0
        self._n_lazy = 0
        self._n_flushed = 0
        self._n_windows = 0
        self._perf_marks = (0, 0, 0, 0, 0)

    def _outage_timeline(self, spec: SyntheticSpec) -> OutageTimeline:
        """The shared timeline of ``spec.outage_group`` (created once).

        The first member's mtbf/mttr fix the group's outage law; a later
        member that disagrees is a configuration error (the provider
        constructor raises), since a shared outage has one duration.
        """
        group = spec.outage_group
        timeline = self._outage_timelines.get(group)
        if timeline is None:
            timeline = OutageTimeline(
                spec.mtbf, spec.mttr,
                self.streams.get(f"market-outages-{group}"),
            )
            self._outage_timelines[group] = timeline
        return timeline

    # -- randomness -----------------------------------------------------------
    def _next_user(self) -> int:
        pos = self._assign_pos
        if pos >= len(self._assign_buf):
            self._assign_buf = self._assign_rng.integers(
                0, self.n_users, size=_DRAW_CHUNK
            )
            pos = 0
        self._assign_pos = pos + 1
        return int(self._assign_buf[pos])

    def _next_uniform(self) -> float:
        pos = self._choice_pos
        if pos >= len(self._choice_buf):
            self._choice_buf = self._choice_rng.random(size=_DRAW_CHUNK)
            pos = 0
        self._choice_pos = pos + 1
        return float(self._choice_buf[pos])

    # -- feedback -------------------------------------------------------------
    def _buffer_outcome(
        self, user: int, provider: int, score: float, kind: int
    ) -> None:
        self._n_outcomes += 1
        entry = (provider, score, kind)
        pending = self._pending.get(user)
        if pending is None:
            self._pending[user] = [entry]
        else:
            pending.append(entry)

    def _flush_pending(self) -> None:
        """Fold every buffered outcome into the population, vectorized."""
        if not self._pending:
            return
        entries = [
            (user, provider, score, kind)
            for user, outcomes in self._pending.items()
            for provider, score, kind in outcomes
        ]
        self._pending.clear()
        self.population.apply_batch(entries)
        self._n_flushed += len(entries)

    # -- driving -------------------------------------------------------------
    def run(self, jobs: Iterable[Job]) -> None:
        """Stream jobs (sorted by submit time) through the market.

        Accepts any iterable — a list, or a lazy generator of millions of
        jobs.  Arrivals are driven by a single self-rescheduling pump
        event, so scheduling memory stays O(1) in stream length.
        """
        stream = iter(jobs)
        first = next(stream, None)
        if first is not None:
            self.sim.schedule_at(
                first.submit_time, self._pump, stream, first,
                priority=Priority.ARRIVAL,
            )
        self.sim.run()
        self._flush_pending()
        self._close_window()
        self._flush_market_perf()

    def _pump(self, stream: Iterator[Job], job: Job) -> None:
        self._arrive(job)
        nxt = next(stream, None)
        if nxt is None:
            return
        if nxt.submit_time < job.submit_time:
            raise ValueError(
                f"job stream must be sorted by submit_time: job "
                f"{nxt.job_id} at t={nxt.submit_time} follows t={job.submit_time}"
            )
        self.sim.schedule_at(
            nxt.submit_time, self._pump, stream, nxt, priority=Priority.ARRIVAL
        )

    def _arrive(self, job: Job) -> None:
        now = self.sim.now
        if now >= self._window_start + self.share_window:
            while now >= self._window_start + self.share_window:
                self._close_window()
        user = self._next_user()
        pending = self._pending.pop(user, None)
        if pending is not None:
            apply = self.population.apply
            for provider, score, kind in pending:
                apply(user, provider, score, kind)
            self._n_lazy += len(pending)
        index = self.population.choose(user, self._next_uniform())
        self._n_choices += 1
        self._window_counts[index] += 1
        self._stats_list[index].submitted += 1
        self._adapters[index].submit(job, user)

    def _close_window(self) -> None:
        if any(self._window_counts):
            self.share_samples.append(
                MarketShareSample(
                    time=self._window_start,
                    submissions=dict(zip(self.names, self._window_counts)),
                )
            )
            self._window_counts = [0] * len(self.names)
            # Fold the window's buffered feedback in bulk: scores are
            # up to date at every sampling boundary.
            self._flush_pending()
        self._window_start += self.share_window
        self._n_windows += 1

    def _flush_market_perf(self) -> None:
        totals = (self._n_choices, self._n_outcomes, self._n_lazy,
                  self._n_flushed, self._n_windows)
        if PERF.enabled:
            marks = self._perf_marks
            for name, total, mark in zip(
                ("market.user_choices", "market.outcomes",
                 "market.lazy_applied", "market.window_flushed",
                 "market.windows_closed"),
                totals, marks,
            ):
                if total > mark:
                    PERF.incr(name, total - mark)
        self._perf_marks = totals

    # -- results -------------------------------------------------------------
    def market_share(self, provider: str) -> float:
        """Overall share of submissions won by ``provider``."""
        total = sum(s.submitted for s in self.stats.values())
        return self.stats[provider].submitted / total if total else 0.0

    def final_share(self, provider: str, last_windows: int = 3) -> float:
        """Share over the last sampling windows — the market's verdict."""
        samples = self.share_samples[-last_windows:]
        if not samples:
            return self.market_share(provider)
        won = sum(s.submissions.get(provider, 0) for s in samples)
        total = sum(sum(s.submissions.values()) for s in samples)
        return won / total if total else 0.0

    def revenue(self, provider: str) -> float:
        index = self.names.index(provider)
        return self._adapters[index].revenue()

    def preferred_counts(self) -> dict[str, int]:
        """How many users currently prefer each provider.

        Exact after :meth:`run` returns (all feedback flushed); mid-run it
        reflects the state as of the last applied outcomes.
        """
        return self.population.preferred_counts()

    def outcome_counts(self) -> dict[str, dict[str, int]]:
        """Aggregate applied-outcome counts per provider (cohort view)."""
        return self.population.outcome_counts

    def summary_rows(self) -> list[dict]:
        rows = []
        preferred = self.preferred_counts()
        for name, adapter in zip(self.names, self._adapters):
            stats = self.stats[name]
            rows.append(
                {
                    "provider": name,
                    "policy": adapter.policy_label,
                    "submitted": stats.submitted,
                    "accepted": stats.accepted,
                    "fulfilled": stats.fulfilled,
                    "violated": stats.violated,
                    "rejected": stats.rejected,
                    "overall_share": self.market_share(name),
                    "final_share": self.final_share(name),
                    "revenue": self.revenue(name),
                    "loyal_users": preferred[name],
                }
            )
        return rows
