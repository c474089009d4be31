"""EASY backfilling with generous admission control (paper §5.2).

FCFS-BF, SJF-BF and EDF-BF differ only in the queue priority; everything
else lives here:

- Arriving jobs enter a priority queue; nothing is decided at submission
  ("new jobs are only examined and accepted prior to execution").
- Whenever the cluster state changes, the dispatcher applies the *generous
  admission control* — reject if (i) the runtime estimate predicts a
  deadline miss from a start *now*, or (ii) the deadline already lapsed in
  the queue — plus the commodity budget check, then starts the head job if
  it fits.
- If the head does not fit, EASY backfilling computes the head's shadow
  time and spare processors and starts any lower-priority job that cannot
  delay that reservation (Mu'alem & Feitelson's rule).

Rejecting a predicted-late job before it reaches the head is safe and
equivalent to rejecting it "at the latest time": ``now`` only grows, so a
prediction ``now + estimate > deadline`` can never become feasible again.
With backfilling on, the dispatcher therefore leaves every queued job
feasible, and each dispatch first drops the jobs that stopped being so:
new arrivals, jobs whose latest feasible start has passed (popped from a
heap) and, under a time-of-day tariff, any job whose quote now exceeds its
budget.  A flat quote never changes while a job waits, so it is struck once
when the job is queued.
"""

from __future__ import annotations

import abc
import bisect
import heapq
import itertools
import math
from typing import Optional

from repro.cluster.profile import can_backfill, easy_backfill_window
from repro.cluster.spaceshared import SpaceSharedCluster
from repro.policies.base import Policy
from repro.service.sla import ACCEPTED
from repro.sim.engine import Simulator
from repro.workload.job import Job

#: numerical slack on deadline feasibility comparisons (seconds).
TIME_EPS = 1e-9


class BackfillPolicy(Policy, abc.ABC):
    """Shared machinery of the three ``*-BF`` policies.

    Two ablation switches support the paper's design observations:

    - ``admission_control=False`` drops the generous admission control
      (§5.2 notes such policies "perform much worse, especially when
      deadlines of jobs are short") — every deadline-infeasible job still
      runs and misses;
    - ``backfilling=False`` reduces the policy to plain priority-queue
      scheduling (strict head-of-queue), isolating EASY's contribution.
    """

    def __init__(
        self,
        admission_control: bool = True,
        backfilling: bool = True,
        kill_at_estimate: bool = False,
        tariff=None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.admission_control = bool(admission_control)
        self.backfilling = bool(backfilling)
        #: optional :class:`repro.economy.pricing.TimeOfDayPricing`
        #: replacing the flat quote (paper §5.1's "variable price").
        self.tariff = tariff
        #: real batch systems terminate a job once its requested time is
        #: exhausted; the paper instead lets under-estimates run to
        #: completion (non-preemptive).  This switch enables the real-world
        #: discipline for the kill-at-estimate ablation.
        self.kill_at_estimate = bool(kill_at_estimate)
        #: waiting jobs in priority order.
        self._queue: list[Job] = []
        #: flat pricing: (admissible, cost) of each queued job, struck when
        #: it was queued.
        self._quotes: dict[int, tuple[bool, float]] = {}
        #: heap of (check time, serial, job): a queued job is due for an
        #: admission check once ``now`` passes its check time.
        self._checks: list[tuple[float, int, Job]] = []
        #: serial of each queued job's live ``_checks`` entry.
        self._check_serial: dict[int, int] = {}
        self._serials = itertools.count()

    def make_cluster(self, sim: Simulator, total_procs: int) -> SpaceSharedCluster:
        return SpaceSharedCluster(sim, total_procs)

    @abc.abstractmethod
    def priority_key(self, job: Job):
        """Sort key; the lowest value is the highest-priority job."""

    def expected_cost(self, job: Job) -> float:
        if self.tariff is not None:
            # Variable pricing strikes the quote when the provider examines
            # the request — at execution time for the queue-based policies.
            return self.tariff.cost(job, self.sim.now)
        return super().expected_cost(job)

    # -- lifecycle ------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self._require_bound()
        self._enqueue(job)
        self._dispatch()

    def _enqueue(self, job: Job) -> None:
        bisect.insort(self._queue, job, key=self.priority_key)
        if self.tariff is None:
            self._quotes[job.job_id] = self._budget_ok(job)
            if self.backfilling:
                self._check_after(job, -math.inf)

    def _check_after(self, job: Job, time: float) -> None:
        serial = next(self._serials)
        self._check_serial[job.job_id] = serial
        heapq.heappush(self._checks, (time, serial, job))

    def _forget(self, job: Job) -> None:
        """Discard the bookkeeping of a job leaving the queue."""
        self._quotes.pop(job.job_id, None)
        self._check_serial.pop(job.job_id, None)

    def _on_finish(self, job: Job, finish_time: float) -> None:
        if self.kill_at_estimate and job.runtime > job.estimate + TIME_EPS:
            self.service.notify_killed(job, finish_time)
        else:
            self.service.notify_finished(job, finish_time)
        self._dispatch()

    # -- admission ----------------------------------------------------------
    def _quote(self, job: Job) -> tuple[bool, float]:
        """(admissible, cost): struck when queued under flat pricing, now
        under a tariff."""
        if self.tariff is None:
            return self._quotes[job.job_id]
        return self._budget_ok(job)

    def _rejection_reason(self, job: Job) -> Optional[str]:
        """Generous admission control, applied when a job is examined for
        execution (not at submission)."""
        if self.admission_control:
            now = self.sim.now
            if now > job.absolute_deadline + TIME_EPS:
                return "deadline lapsed while queued"
            if now + job.estimate > job.absolute_deadline + TIME_EPS:
                return "runtime estimate predicts deadline miss"
        admissible, _ = self._quote(job)
        if not admissible:
            return "expected cost exceeds budget"
        return None

    def _start(self, job: Job) -> None:
        _, cost = self._quote(job)
        self._forget(job)
        if self.fault_config is not None and self._is_interrupted(job):
            # Restart after a node failure: the SLA was accepted before the
            # failure, so only the (re)start transition fires.
            pass
        else:
            self.service.notify_accepted(job, quoted_cost=cost)
        self.service.notify_started(job)
        max_runtime = job.estimate if self.kill_at_estimate else None
        self.cluster.start(job, self._on_finish, max_runtime=max_runtime)

    # -- fault recovery -------------------------------------------------------
    def _is_interrupted(self, job: Job) -> bool:
        return self.service.record_of(job).status is ACCEPTED

    def _drop(self, job: Job, reason: str) -> None:
        """Remove an infeasible queued job.

        A fresh job is rejected (SLA never committed); a job re-queued
        after a node failure was already accepted, so its SLA is terminally
        *failed* instead — this is how failure-induced deadline misses turn
        into penalties.
        """
        if self.fault_config is not None and self._is_interrupted(job):
            self.service.notify_failed(job, self.sim.now)
            return
        self._reject(job, reason)

    def _recover_failed_job(self, job: Job) -> None:
        """Re-queue an interrupted job; the dispatcher re-examines it under
        the same generous admission control as any queued job."""
        self._enqueue(job)

    def _up_capacity(self) -> int:
        """Processors on nodes that are not down."""
        if self.fault_config is None:
            return self.cluster.total_procs
        return self.cluster.total_procs - self.cluster.down_count()

    def _after_failure(self) -> None:
        # The failure may have freed survivor nodes of a killed parallel
        # job, and the re-queued work must be (re)examined.
        self._dispatch()

    def on_node_repair(self, node_ids: tuple[int, ...]) -> None:
        self._dispatch()

    # -- the dispatcher ---------------------------------------------------------
    def _dispatch(self) -> None:
        """Start jobs off the head, then backfill, until no job can start now.

        With backfilling on, infeasible jobs are dropped up front; plain
        priority scheduling examines the head only, and only once it is the
        head, because an interrupted job's failure time sets its penalty.
        """
        queue = self._queue
        if self.backfilling:
            self._drop_infeasible()
        while queue:
            head = queue[0]
            if not self.backfilling:
                reason = self._rejection_reason(head)
                if reason is not None:
                    del queue[0]
                    self._forget(head)
                    self._drop(head, reason)
                    continue
            if not self.cluster.can_fit(head.procs):
                break
            del queue[0]
            self._start(head)
        if self.backfilling and len(queue) > 1:
            self._backfill(queue[0])

    def _drop_infeasible(self) -> None:
        """Drop, in priority order, every queued job that fails admission now.

        The previous dispatch left every queued job feasible.  Under flat
        pricing only the deadline test can fail later, once ``now`` passes
        the job's latest feasible start, so only new jobs and jobs whose
        check time has passed are examined; a tariff re-prices every job.
        """
        now = self.sim.now
        if self.tariff is not None:
            suspects = self._queue
        else:
            suspects = []
            checks = self._checks
            while checks and checks[0][0] < now:
                _, serial, job = heapq.heappop(checks)
                if self._check_serial.get(job.job_id) == serial:
                    suspects.append(job)
        dropped = []
        for job in suspects:
            reason = self._rejection_reason(job)
            if reason is not None:
                dropped.append((self.priority_key(job), job, reason))
            elif self.tariff is None:
                if self.admission_control:
                    self._check_after(job, latest_feasible_start(job))
                else:
                    del self._check_serial[job.job_id]
        if not dropped:
            return
        dropped.sort(key=lambda entry: entry[0])
        gone = {job.job_id for _, job, _ in dropped}
        self._queue[:] = [job for job in self._queue if job.job_id not in gone]
        for _, job, reason in dropped:
            self._forget(job)
            self._drop(job, reason)

    def _window(self, head: Job) -> tuple[float, int]:
        """EASY shadow time and spare processors for the blocked head.

        The cluster keeps its releases in finish order, which is what
        :func:`easy_backfill_window` requires, so the window walks only
        the prefix up to the shadow.
        """
        if head.procs > self._up_capacity():
            # Failed nodes leave too little machine for the head until a
            # repair; EASY's reservation is undefined, so let anything that
            # fits the surviving capacity run meanwhile (the head cannot be
            # delayed — it cannot start at all).
            return math.inf, self.cluster.free_procs
        return easy_backfill_window(
            self.sim.now,
            self.cluster.free_procs,
            self.cluster.releases(),
            head.procs,
            self.cluster.total_procs,
        )

    def _backfill(self, head: Job) -> None:
        """Start, in priority order, each job that cannot delay the head.

        A start only shrinks the free processors, and on a homogeneous
        machine it leaves the shadow time alone and the spare no larger, so
        no job already passed over can now fit: the scan goes on from where
        it is.  On a heterogeneous machine a job slower than its estimate
        can end past the shadow and move it later, which loosens the
        window; the scan then restarts from the front.
        """
        queue = self._queue
        cluster = self.cluster
        now = self.sim.now
        window = None  # computed once some job fits the free processors
        i = 1
        while True:
            free = cluster.free_procs
            if free == 0:
                return
            for i in range(i, len(queue)):
                job = queue[i]
                if job.procs <= free:
                    if window is None:
                        window = self._window(head)
                    shadow, spare = window
                    if can_backfill(now, free, job.procs, job.estimate, shadow, spare):
                        break
            else:
                return
            del queue[i]
            self._start(job)
            window = self._window(head)
            if window[0] != shadow or window[1] > spare:
                i = 1

    # -- introspection --------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def queued_jobs(self) -> list[Job]:
        return list(self._queue)


def latest_feasible_start(job: Job) -> float:
    """A time ``now`` must pass before ``job`` can fail the deadline test.

    The test ``now + estimate > deadline + TIME_EPS`` holds only if the
    exact sum exceeds the rounded right-hand side, i.e. only if ``now``
    exceeds the exact difference.  Stepping the rounded difference down one
    ulp keeps the result at or below that difference, so the check is never
    late.  (The lapsed-deadline test implies this one, as estimates are
    positive.)
    """
    return math.nextafter(job.absolute_deadline + TIME_EPS - job.estimate, -math.inf)
