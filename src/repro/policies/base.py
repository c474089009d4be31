"""Policy interface.

A policy is bound to exactly one :class:`CommercialComputingService` run.
It decides (a) which cluster discipline it executes on, (b) whether to
accept each submitted SLA and when, and (c) the commodity-market price it
quotes.  It reports every lifecycle transition back to the service.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Optional

from repro.economy.pricing import PricingParams, flat_cost
from repro.perf.registry import PERF
from repro.sim.engine import Simulator
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.config import FaultConfig
    from repro.faults.injector import FaultKill


class PolicyError(RuntimeError):
    """Raised on misuse of a policy (e.g. submit before bind)."""


class Policy(abc.ABC):
    """Base class for all resource-management policies."""

    #: the paper's name for the policy (Table V).
    name: str = "abstract"

    def __init__(self, pricing: Optional[PricingParams] = None) -> None:
        self.pricing = pricing if pricing is not None else PricingParams()
        self.service = None
        self.sim: Optional[Simulator] = None
        self.cluster = None
        #: set by :meth:`repro.faults.injector.FaultInjector.start`; ``None``
        #: on fault-free runs, which keeps every fault guard a single
        #: attribute test on the hot path.
        self.fault_config: Optional["FaultConfig"] = None

    # -- wiring -------------------------------------------------------------
    @abc.abstractmethod
    def make_cluster(self, sim: Simulator, total_procs: int):
        """Build the cluster discipline this policy schedules on."""

    def bind(self, service, sim: Simulator, cluster) -> None:
        if self.service is not None:
            raise PolicyError(f"{self.name} is already bound to a service")
        self.service = service
        self.sim = sim
        self.cluster = cluster

    def _require_bound(self) -> None:
        if self.service is None:
            raise PolicyError(f"{self.name} must be bound to a service first")

    # -- decisions ------------------------------------------------------------
    @abc.abstractmethod
    def submit(self, job: Job) -> None:
        """Handle a job arrival (called by the service at submit time)."""

    def expected_cost(self, job: Job) -> float:
        """Commodity-market quote for ``job``; default is flat base pricing."""
        return flat_cost(job, self.pricing)

    # -- shared helpers ---------------------------------------------------------
    def _reject(self, job: Job, reason: str) -> None:
        if PERF.enabled:
            PERF.incr("policy.decisions")
            PERF.incr("policy.rejections")
        self.service.notify_rejected(job, reason)

    def _budget_ok(self, job: Job) -> tuple[bool, float]:
        """Ask the economic model whether the quote fits the budget.

        Returns (admissible, quoted_cost); the quote is recorded on
        acceptance so commodity settlement charges exactly what was agreed.
        """
        cost = self.expected_cost(job)
        return self._quote_fits(job, cost), cost

    def _quote_fits(self, job: Job, cost: float) -> bool:
        """Ask the economic model whether ``cost`` fits the job's budget.

        Every policy's budget check goes through here, and each counts one
        decision and one quote, so ``policy.decisions`` equals
        ``policy.quotes`` plus ``policy.rejections`` for every policy.
        """
        if PERF.enabled:
            PERF.incr("policy.decisions")
            PERF.incr("policy.quotes")
        return self.service.economically_admissible(job, cost)

    # -- fault recovery ---------------------------------------------------------
    def on_node_failure(
        self, node_ids: tuple[int, ...], kills: list["FaultKill"]
    ) -> None:
        """The nodes ``node_ids`` failed at this instant, as one batch;
        ``kills`` lists the jobs they terminated (each names its node).

        Every node of the batch is already down, so the one dispatch at the
        end cannot start a job on any of them.  The default discipline:
        every killed job's SLA is *interrupted* (the commitment survives),
        the configured recovery mode is applied to the job's remaining work,
        and :meth:`_recover_failed_job` re-runs it.  Policies that cannot re-run a job override
        :meth:`_recover_failed_job` (the base version terminally fails the
        SLA, charging the economic model's penalty).
        """
        for kill in kills:
            self.service.notify_interrupted(kill.job)
            self._apply_recovery(kill)
            self._recover_failed_job(kill.job)
        self._after_failure()

    def _apply_recovery(self, kill: "FaultKill") -> None:
        """Rewrite the job's remaining work per the recovery mode.

        ``resubmit`` loses all progress: the job re-runs from scratch, so
        nothing changes.  ``checkpoint`` resumes from the last periodic
        checkpoint: work up to ``floor(progress / interval) * interval`` is
        saved; the remaining runtime is the unsaved work plus the restore
        overhead, and the estimate shrinks by the saved work (floored so
        the scheduler still sees a live request).
        """
        cfg = self.fault_config
        if cfg is None or cfg.recovery != "checkpoint":
            if PERF.enabled:
                PERF.incr("faults.resubmits")
            return
        saved = math.floor(kill.progress / cfg.checkpoint_interval)
        saved *= cfg.checkpoint_interval
        if saved <= 0.0:
            # Died before the first checkpoint: identical to a resubmit.
            if PERF.enabled:
                PERF.incr("faults.resubmits")
            return
        job = kill.job
        job.runtime = max(job.runtime - saved, 0.0) + cfg.checkpoint_overhead
        job.estimate = max(job.estimate - saved, 1.0)
        if PERF.enabled:
            PERF.incr("faults.checkpoint_restores")
            PERF.observe("faults.work_saved_s", saved)

    def _recover_failed_job(self, job: Job) -> None:
        """Re-run one interrupted job; base policies cannot, so the SLA is
        terminally failed and the deadline-miss penalty is charged."""
        self.service.notify_failed(job, self.sim.now)

    def _after_failure(self) -> None:
        """Hook after all kills of one failure batch are recovered (e.g.
        repair the backfill plan)."""

    def on_node_repair(self, node_ids: tuple[int, ...]) -> None:
        """The nodes ``node_ids`` came back (or were commissioned) at this
        instant, as one batch; capacity grew, so try to dispatch."""
