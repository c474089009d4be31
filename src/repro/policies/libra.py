"""Libra — deadline-proportional share with admission control (Table V).

Libra (Sherwani et al., SPE 34(6)) keeps no queue: a job is examined at
submission and either starts immediately or is rejected.  Each job needs a
minimum processor-time share ``tr_i / d_i`` (runtime estimate over deadline)
on each of its ``procs`` nodes; admission requires enough nodes with that
much uncommitted share.  Nodes are chosen *best fit* — the least residual
free share after placement — so every node saturates before the next fills.

Commodity-market pricing is Libra's static incentive function
``γ·tr + δ·tr/d`` (see :func:`repro.economy.pricing.libra_cost`).
"""

from __future__ import annotations

from repro.cluster.timeshared import ShareMode, TimeSharedCluster
from repro.economy.pricing import libra_cost
from repro.policies.base import Policy
from repro.sim.engine import Simulator
from repro.workload.job import Job


class Libra(Policy):
    name = "Libra"
    share_mode = ShareMode.STATIC
    exclude_risky_nodes = False

    def make_cluster(self, sim: Simulator, total_procs: int) -> TimeSharedCluster:
        return TimeSharedCluster(sim, total_procs, mode=self.share_mode)

    def expected_cost(self, job: Job) -> float:
        return libra_cost(job, self.pricing)

    # -- admission at submission ------------------------------------------------
    def required_share(self, job: Job) -> float:
        """Minimum processor-time share ``tr/d`` from the runtime estimate."""
        return job.estimate / job.deadline

    def select_nodes(self, job: Job, share: float) -> list[int] | None:
        feasible = self.cluster.feasible_nodes(
            share, exclude_risky=self.exclude_risky_nodes
        )
        if len(feasible) < job.procs:
            return None
        return feasible[: job.procs]

    def quote(self, job: Job, nodes: list[int]) -> float:
        """Commodity quote fixed at acceptance (before committing shares)."""
        return self.expected_cost(job)

    def submit(self, job: Job) -> None:
        self._require_bound()
        share = self.required_share(job)
        if share > 1.0:
            self._reject(job, "deadline shorter than runtime estimate")
            return
        nodes = self.select_nodes(job, share)
        if nodes is None:
            self._reject(job, "insufficient free processor share for deadline")
            return
        cost = self.quote(job, nodes)
        if not self._quote_fits(job, cost):
            self._reject(job, "expected cost exceeds budget")
            return
        self.service.notify_accepted(job, quoted_cost=cost)
        self.service.notify_started(job)
        self.cluster.admit(job, share, nodes, self._on_finish)

    def _on_finish(self, job: Job, finish_time: float) -> None:
        self.service.notify_finished(job, finish_time)

    # -- fault recovery ----------------------------------------------------------
    def _recover_failed_job(self, job: Job) -> None:
        """Re-admit an interrupted job immediately (Libra keeps no queue).

        The required share is re-derived from the *remaining* estimate over
        the time left to the deadline — after a checkpoint restore the
        estimate already excludes the saved work.  If no feasible placement
        exists (or the deadline is no longer reachable) the SLA is
        terminally failed and the penalty charged.
        """
        now = self.sim.now
        window = job.absolute_deadline - now
        if window <= 0.0:
            self.service.notify_failed(job, now)
            return
        share = job.estimate / window
        if share > 1.0:
            self.service.notify_failed(job, now)
            return
        nodes = self.select_nodes(job, share)
        if nodes is None:
            self.service.notify_failed(job, now)
            return
        self.service.notify_started(job)
        self.cluster.admit(job, share, nodes, self._on_finish)
