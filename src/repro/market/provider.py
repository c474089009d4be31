"""O(1)-per-job synthetic providers for population-scale markets.

A real :class:`~repro.service.provider.CommercialComputingService` prices
every job through the full policy/cluster stack — thousands of simulator
events per accepted job, which caps marketplace throughput near 10³–10⁴
jobs/sec.  Market *dynamics* (the paper's §3 loyalty loop) don't need that
fidelity: they need each provider to turn a job into an outcome —
accepted or rejected, on time or late, at some wait — under controllable
risk knobs.

:class:`SyntheticProvider` is that reduction: a deterministic fluid-queue
capacity model.  The provider serves ``capacity`` processor-equivalents;
a job of ``runtime × procs`` work occupies the queue for
``work / capacity`` seconds behind whatever backlog exists.  Submission is
O(1) state (one backlog-release timestamp), so a two-provider market
streams 10⁵ jobs to 10⁶ users in about a second.

Risk knobs (all swept by :mod:`repro.experiments.marketsweep`):

``admission``
    ``"greedy"`` accepts everything and eats SLA violations under
    overload; ``"deadline"`` rejects jobs whose projected finish would
    break the SLA — rejections instead of violations.  The same integrated
    tradeoff the paper's admission-controlled policies make.
``queue_limit``
    maximum backlog wait (seconds) accepted at submission.
``mtbf`` / ``mttr``
    an exponential outage process on the provider's own RNG substream;
    each outage freezes the queue for ``mttr`` seconds, so low MTBF turns
    into waits, violations, and (under ``"deadline"`` admission)
    rejections — dependability as a market-share knob.
``outage_group``
    providers naming the same group draw their outages from one shared
    :class:`OutageTimeline` instead of private substreams: they go down
    *together* (a shared grid, datacentre, or network).  The marginal
    outage law per provider is unchanged — only the correlation moves —
    so sweeping a provider's ``outage_group`` between ``None`` and a
    shared name isolates what correlated risk alone does to market share.

Revenue uses the same Eq. 9 bid-shaped utility as the real providers
(:func:`repro.economy.penalty.linear_utility`): the full budget on time,
linearly penalised when late.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from repro.economy.penalty import linear_utility
from repro.workload.job import Job

ADMISSION_POLICIES = ("greedy", "deadline")


@dataclass(frozen=True)
class SyntheticSpec:
    """One synthetic competitor: capacity plus risk knobs.

    Frozen and JSON-scalar so marketsweep configs hash into stable content
    digests (:func:`to_dict` / :func:`from_dict` round-trip exactly).
    """

    name: str
    #: processor-equivalents served in parallel (fluid approximation).
    capacity: float = 64.0
    #: admission policy: see module docstring.
    admission: str = "greedy"
    #: maximum backlog wait (seconds) accepted at submission.
    queue_limit: float = math.inf
    #: mean time between outages (None = never fails).
    mtbf: Optional[float] = None
    #: queue freeze per outage (seconds).
    mttr: float = 3600.0
    #: correlated-outage group name (None = outages are private).
    outage_group: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a provider needs a name")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r} "
                f"(expected one of {ADMISSION_POLICIES})"
            )
        if self.queue_limit < 0:
            raise ValueError("queue_limit cannot be negative")
        if self.mtbf is not None and self.mtbf <= 0:
            raise ValueError("mtbf must be positive (or None to disable)")
        if self.mttr <= 0:
            raise ValueError("mttr must be positive")
        if self.outage_group is not None:
            if not self.outage_group:
                raise ValueError("outage_group cannot be an empty string")
            if self.mtbf is None:
                raise ValueError(
                    "outage_group requires an outage process: set mtbf too"
                )

    def to_dict(self) -> dict:
        doc = asdict(self)
        # JSON has no Infinity; encode the unbounded queue as null.
        if math.isinf(self.queue_limit):
            doc["queue_limit"] = None
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "SyntheticSpec":
        kwargs = dict(doc)
        if kwargs.get("queue_limit") is None:
            kwargs["queue_limit"] = math.inf
        return SyntheticSpec(**kwargs)


class OutageTimeline:
    """One outage group's shared failure instants, lazily materialised.

    Every member of an ``outage_group`` reads the *same* sequence of
    outage start times through a private cursor, so members fail
    simultaneously regardless of how far each has folded its own queue
    forward.  The sequence follows exactly the law a solo provider draws
    from its private substream — ``exp(mtbf)`` to the first outage, then
    ``mttr + exp(mtbf)`` between starts — so grouping changes only the
    correlation structure, never a provider's marginal availability.
    """

    def __init__(self, mtbf: float, mttr: float, rng: np.random.Generator) -> None:
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if mttr <= 0:
            raise ValueError("mttr must be positive")
        self.mtbf = float(mtbf)
        self.mttr = float(mttr)
        self._rng = rng
        self._starts: list[float] = []

    def start(self, index: int) -> float:
        """The ``index``-th outage start time (draws as far as needed)."""
        starts = self._starts
        while len(starts) <= index:
            if not starts:
                starts.append(float(self._rng.exponential(self.mtbf)))
            else:
                starts.append(
                    starts[-1] + self.mttr + float(self._rng.exponential(self.mtbf))
                )
        return starts[index]


@dataclass
class SyntheticOutcome:
    """What one submission resolved to (all times absolute)."""

    accepted: bool
    wait: float = 0.0
    finish: float = 0.0
    deadline_met: bool = False
    utility: float = 0.0


class SyntheticProvider:
    """Fluid-queue provider: one backlog timestamp, O(1) per submission."""

    def __init__(
        self,
        spec: SyntheticSpec,
        rng: Optional[np.random.Generator] = None,
        timeline: Optional[OutageTimeline] = None,
    ) -> None:
        self.spec = spec
        self._release = 0.0  # when the current backlog clears
        self._rng = rng
        self._timeline = timeline
        self._cursor = 0  # next timeline index, when grouped
        self.failures = 0
        if timeline is not None:
            if spec.mtbf is None:
                raise ValueError("a grouped provider needs an mtbf")
            if (timeline.mtbf, timeline.mttr) != (spec.mtbf, spec.mttr):
                raise ValueError(
                    f"provider {spec.name!r} disagrees with its outage "
                    f"group's timeline: mtbf/mttr "
                    f"{spec.mtbf}/{spec.mttr} vs "
                    f"{timeline.mtbf}/{timeline.mttr}"
                )
            self._next_fail: float = timeline.start(0)
        elif spec.mtbf is not None:
            if rng is None:
                raise ValueError("a failing provider needs an RNG substream")
            self._next_fail = float(rng.exponential(spec.mtbf))
        else:
            self._next_fail = math.inf

    def _advance_failures(self, now: float) -> None:
        """Fold every outage up to ``now`` into the backlog timestamp."""
        while self._next_fail <= now:
            t = self._next_fail
            if self._release < t:
                self._release = t
            self._release += self.spec.mttr
            self.failures += 1
            if self._timeline is not None:
                self._cursor += 1
                self._next_fail = self._timeline.start(self._cursor)
            else:
                # No failures while down: the next draw starts after repair.
                self._next_fail = t + self.spec.mttr + float(
                    self._rng.exponential(self.spec.mtbf)
                )

    def submit(self, job: Job, now: float) -> SyntheticOutcome:
        """Price one job submitted at ``now``; mutates backlog on accept."""
        spec = self.spec
        self._advance_failures(now)
        start = self._release if self._release > now else now
        wait = start - now
        if wait > spec.queue_limit:
            return SyntheticOutcome(accepted=False)
        finish = start + job.runtime * job.procs / spec.capacity
        met = finish <= job.absolute_deadline
        if spec.admission == "deadline" and not met:
            return SyntheticOutcome(accepted=False)
        self._release = finish
        return SyntheticOutcome(
            accepted=True,
            wait=wait,
            finish=finish,
            deadline_met=met,
            utility=linear_utility(job, finish),
        )
