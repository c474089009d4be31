"""FirstReward — risk/reward admission and scheduling (Table V).

FirstReward (Irwin, Grit & Chase, HPDC'04) values each job by the α-weighted
reward

.. math:: reward_i = \\frac{\\alpha \\cdot PV_i - (1-\\alpha)\\,cost_i}{RPT_i}

where the present value discounts the bid over the estimated remaining
runtime, ``PV_i = b_i / (1 + discount\\_rate · RPT_i)``, and for unbounded
penalties the opportunity cost of running *i* is the penalty every other
accepted job accrues while it waits: ``cost_i = Σ_{j≠i} pr_j · RPT_i``.

Admission (at submission) uses the *slack* test: accept iff

.. math:: slack_i = (PV_i - cost_i) / pr_i \\ge threshold

The paper's tuned constants for the simulated workload: α = 1, discount
rate = 1 %/s, slack threshold = 25.  Following the paper we extend the
policy to multi-processor parallel jobs but give it **no backfilling**: the
accepted queue is ordered by reward and only the head may start, so jobs
can idle waiting for enough processors.
"""

from __future__ import annotations

import math
from repro.cluster.spaceshared import SpaceSharedCluster
from repro.policies.base import Policy
from repro.sim.engine import Simulator
from repro.workload.job import Job

#: guards the slack division for (near-)zero penalty rates.
MIN_PENALTY_RATE = 1e-9


class FirstReward(Policy):
    name = "FirstReward"

    def __init__(
        self,
        alpha: float = 1.0,
        discount_rate: float = 0.01,
        slack_threshold: float = 25.0,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0,1], got {alpha}")
        if discount_rate < 0.0:
            raise ValueError("discount rate cannot be negative")
        self.alpha = alpha
        self.discount_rate = discount_rate
        self.slack_threshold = slack_threshold
        self._queue: list[Job] = []

    def make_cluster(self, sim: Simulator, total_procs: int) -> SpaceSharedCluster:
        return SpaceSharedCluster(sim, total_procs)

    # -- valuation -------------------------------------------------------------
    def remaining_runtime(self, job: Job) -> float:
        """RPT — the estimate while queued (jobs are non-preemptive, so a
        started job never returns to the queue)."""
        return job.estimate

    def present_value(self, job: Job) -> float:
        rpt = self.remaining_runtime(job)
        return job.budget / (1.0 + self.discount_rate * rpt)

    def _outstanding(self, exclude: Job) -> list[Job]:
        """Accepted-but-unfinished jobs other than ``exclude``: the queue
        plus everything running."""
        running = [r.job for r in self.cluster.running()]
        return [j for j in self._queue + running if j.job_id != exclude.job_id]

    def opportunity_cost(self, job: Job) -> float:
        """Penalty the other accepted jobs accrue over this job's RPT."""
        rpt = self.remaining_runtime(job)
        return math.fsum(other.penalty_rate for other in self._outstanding(job)) * rpt

    def reward(self, job: Job) -> float:
        rpt = self.remaining_runtime(job)
        pv = self.present_value(job)
        cost = self.opportunity_cost(job)
        return (self.alpha * pv - (1.0 - self.alpha) * cost) / rpt

    def slack(self, job: Job) -> float:
        pv = self.present_value(job)
        cost = self.opportunity_cost(job)
        return (pv - cost) / max(job.penalty_rate, MIN_PENALTY_RATE)

    # -- lifecycle ---------------------------------------------------------------
    def submit(self, job: Job) -> None:
        self._require_bound()
        if self.slack(job) < self.slack_threshold:
            self._reject(job, "slack below threshold")
            return
        admissible, cost = self._budget_ok(job)
        if not admissible:
            self._reject(job, "expected cost exceeds budget")
            return
        self.service.notify_accepted(job, quoted_cost=cost)
        self._queue.append(job)
        self._dispatch()

    def _on_finish(self, job: Job, finish_time: float) -> None:
        self.service.notify_finished(job, finish_time)
        self._dispatch()

    def _dispatch(self) -> None:
        """Start jobs head-first in reward order; no skipping (no backfill)."""
        while self._queue:
            self._queue.sort(key=lambda j: (-self.reward(j), j.submit_time, j.job_id))
            head = self._queue[0]
            if not self.cluster.can_fit(head.procs):
                return
            self._queue.pop(0)
            self.service.notify_started(head)
            self.cluster.start(head, self._on_finish)

    # -- fault recovery -----------------------------------------------------------
    def _recover_failed_job(self, job: Job) -> None:
        """Re-queue an interrupted job; it competes on reward like any other
        accepted job.  FirstReward never rejects on deadlines — a late
        re-run simply accrues the bid-based penalty, which is the risk
        channel this policy prices explicitly."""
        self._queue.append(job)

    def _after_failure(self, node_id: int) -> None:
        self._dispatch()

    def on_node_repair(self, node_id: int) -> None:
        self._dispatch()

    # -- introspection -------------------------------------------------------------
    @property
    def queue_length(self) -> int:
        return len(self._queue)
