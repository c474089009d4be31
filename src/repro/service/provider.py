"""The commercial computing service (paper §3, §5).

:class:`CommercialComputingService` owns one simulation run: it schedules
job arrivals, delegates every admission/scheduling decision to the resource
management policy, lets the policy's cluster model execute jobs, prices and
accounts utility through the economic model, and exports the per-job
outcomes that the objective measurement (Eqs. 1–4) consumes.

The service is policy-agnostic: a policy binds to it, receives ``submit``
calls, and reports back through ``notify_*`` transitions.  This is the same
division GridSim uses between its resource entity and its scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.objectives import JobOutcome, ObjectiveSet, compute_objectives
from repro.economy.models import EconomicModel
from repro.faults.config import FaultConfig
from repro.service.accounting import AccountingLedger
from repro.service.sla import UNRESOLVED, SLARecord
from repro.sim.engine import Simulator
from repro.sim.events import Priority
from repro.workload.job import Job

#: arrival priority, read once per job by :meth:`CommercialComputingService.run`.
_ARRIVAL = Priority.ARRIVAL


@dataclass
class ServiceResult:
    """Everything a finished run exposes."""

    policy: str
    economic_model: str
    outcomes: list[JobOutcome]
    records: list[SLARecord] = field(repr=False, default_factory=list)
    ledger: AccountingLedger = field(repr=False, default_factory=AccountingLedger)
    #: simulated time at the end of the run; a fault run ends at its last
    #: SLA resolution (the injector cancels its later events).
    sim_time: float = 0.0
    #: fault-injection summary, or ``None`` when the run had no faults.
    fault_stats: Optional[dict] = None

    def objectives(self) -> ObjectiveSet:
        """The four objectives (Eqs. 1–4) of this run."""
        return compute_objectives(self.outcomes)


class CommercialComputingService:
    """One provider = one policy + one economic model + one cluster.

    Parameters
    ----------
    policy:
        A :class:`repro.policies.base.Policy`; the service builds the
        cluster the policy asks for and binds them together.
    economic_model:
        The market the provider operates in.
    total_procs:
        Machine size (the paper's SDSC SP2: 128).
    fault_config:
        Optional :class:`repro.faults.config.FaultConfig`; when enabled the
        service builds a :class:`repro.faults.injector.FaultInjector` and
        node failures perturb the run.
    fault_seed:
        Root seed of the injector's rng streams (the experiment seed).
    """

    def __init__(
        self,
        policy,
        economic_model: EconomicModel,
        total_procs: int = 128,
        sim: Optional[Simulator] = None,
        fault_config: Optional[FaultConfig] = None,
        fault_seed: int = 0,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.policy = policy
        self.model = economic_model
        self.ledger = AccountingLedger()
        self._records: dict[int, SLARecord] = {}
        self._unresolved = 0
        #: callbacks invoked as ``observer(event, record)`` on every SLA
        #: transition (event ∈ {"rejected", "accepted", "started",
        #: "finished", "interrupted"}); used by the multi-provider market
        #: simulation and :class:`~repro.service.monitoring.ServiceMonitor`.
        #: A fault run needs none: the terminal transitions close the
        #: injector themselves.
        self.observers: list = []
        self.cluster = policy.make_cluster(self.sim, total_procs)
        policy.bind(service=self, sim=self.sim, cluster=self.cluster)
        self.injector = None
        if fault_config is not None and fault_config.enabled:
            # Imported lazily at module top would be fine too, but keeping
            # the injector optional makes the no-fault path obviously inert.
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self, fault_config, seed=fault_seed)
            self.injector.start()

    def _notify_observers(self, event: str, record: SLARecord) -> None:
        # Callers test ``self.observers`` first: most runs have none, and
        # the test is cheaper than the call.
        for observer in self.observers:
            observer(event, record)

    # -- workload driving ----------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> ServiceResult:
        """Simulate the full workload and return the outcomes."""
        register = self.register
        schedule_at = self.sim.schedule_at
        submit = self.policy.submit
        for job in jobs:
            register(job)
            schedule_at(job.submit_time, submit, job, priority=_ARRIVAL)
        self.sim.run()
        self._check_drained()
        result = self.collect()
        # The run is over: drop the back-references into the service so
        # the run is freed at once, not at the next cyclic collection.
        self.policy.service = None
        if self.injector is not None:
            self.injector.service = None
        return result

    def register(self, job: Job) -> SLARecord:
        """Open an SLA record for a job about to be submitted.

        :meth:`run` does this for a whole batch; external drivers (e.g. the
        multi-provider marketplace) register a job and then call
        ``policy.submit(job)`` at the submission instant themselves.
        """
        if job.job_id in self._records:
            raise ValueError(f"duplicate job id {job.job_id}")
        record = SLARecord(job)
        self._records[job.job_id] = record
        self._unresolved += 1
        return record

    def unresolved_count(self) -> int:
        """Registered SLAs not yet in a terminal state (REJECTED/FINISHED).

        The transition that brings this to zero closes the fault injector:
        it cancels its pending events, so the event list drains at the last
        resolution.
        """
        return self._unresolved

    def submit_now(self, job: Job) -> None:
        """Register and submit a job at the current simulation time."""
        self.register(job)
        self.policy.submit(job)

    def collect(self) -> ServiceResult:
        """Snapshot the outcomes recorded so far."""
        outcomes = [r.outcome() for r in self._records.values()]
        fault_stats = None
        if self.injector is not None:
            stats = self.injector.stats
            fault_stats = {
                "failures": stats.failures,
                "repairs": stats.repairs,
                "jobs_killed": stats.jobs_killed,
                "downtime_s": stats.downtime_s,
                "observed_availability": self.injector.observed_availability(
                    self.sim.now
                ),
                "interrupted_jobs": sum(
                    1 for r in self._records.values() if r.interruptions > 0
                ),
                "failed_slas": sum(1 for r in self._records.values() if r.failed),
                "domain_outages": stats.domain_outages,
                "cascade_propagations": stats.cascade_propagations,
                "nodes_commissioned": stats.nodes_commissioned,
                "nodes_decommissioned": stats.nodes_decommissioned,
            }
        return ServiceResult(
            policy=self.policy.name,
            economic_model=self.model.name,
            outcomes=outcomes,
            records=list(self._records.values()),
            ledger=self.ledger,
            sim_time=self.sim.now,
            fault_stats=fault_stats,
        )

    def _check_drained(self) -> None:
        stuck = [
            r.job.job_id
            for r in self._records.values()
            if r.status in UNRESOLVED
        ]
        if stuck:  # pragma: no cover - indicates a policy bug
            raise RuntimeError(
                f"simulation drained with unresolved jobs: {stuck[:10]}"
                f"{'...' if len(stuck) > 10 else ''}"
            )

    # -- policy callbacks ------------------------------------------------------
    def record_of(self, job: Job) -> SLARecord:
        # The notify_* callbacks below index ``_records`` directly: they run
        # once per job per transition.
        return self._records[job.job_id]

    def notify_rejected(self, job: Job, reason: str) -> None:
        """The policy declined the SLA (admission control or budget)."""
        record = self._records[job.job_id]
        record.reject(reason)
        self._unresolved -= 1
        if self._unresolved == 0 and self.injector is not None:
            self.injector.close()
        if self.observers:
            self._notify_observers("rejected", record)

    def notify_accepted(self, job: Job, quoted_cost: float = 0.0) -> None:
        """The SLA is committed; ``quoted_cost`` is the commodity-market
        charge fixed at acceptance (ignored in the bid-based model)."""
        record = self._records[job.job_id]
        record.accept(self.sim.now, quoted_cost)
        if self.observers:
            self._notify_observers("accepted", record)

    def notify_started(self, job: Job) -> None:
        """Execution begins — the end of the paper's *wait* interval."""
        record = self._records[job.job_id]
        record.start(self.sim.now)
        if self.observers:
            self._notify_observers("started", record)

    def notify_killed(self, job: Job, finish_time: float) -> None:
        """The system terminated the job at its estimate limit; the SLA is
        broken and nothing is charged."""
        record = self._records[job.job_id]
        record.kill(finish_time)
        self._unresolved -= 1
        if self._unresolved == 0 and self.injector is not None:
            self.injector.close()
        self.ledger.record(
            job.job_id, finish_time, 0.0, description="killed at estimate limit"
        )
        if self.observers:
            self._notify_observers("finished", record)

    def notify_finished(self, job: Job, finish_time: float) -> None:
        """Execution completed; utility is settled with the economic model."""
        record = self._records[job.job_id]
        utility = self.model.utility(job, finish_time, record.quoted_cost)
        record.finish(finish_time, utility)
        self._unresolved -= 1
        if self._unresolved == 0 and self.injector is not None:
            self.injector.close()
        self.ledger.record(
            job.job_id, finish_time, utility,
            description=f"{self.model.name} settlement",
        )
        if self.observers:
            self._notify_observers("finished", record)

    def notify_interrupted(self, job: Job) -> None:
        """A node failure killed the execution; the policy will re-run the
        job, so the SLA returns to ACCEPTED (still unresolved)."""
        record = self._records[job.job_id]
        record.interrupt()
        if self.observers:
            self._notify_observers("interrupted", record)

    def notify_failed(self, job: Job, finish_time: float) -> None:
        """A node failure killed the execution and the job cannot be
        re-run: the SLA is terminally broken.

        The provider earns no revenue for the unfinished work, but the
        economic model's *penalty* component (e.g. the bid-based model's
        penalty rate past the deadline) is still charged — this is exactly
        the channel through which failures raise the provider's risk
        metrics.
        """
        record = self._records[job.job_id]
        utility = min(0.0, self.model.utility(job, finish_time, record.quoted_cost))
        record.fail(finish_time, utility)
        self._unresolved -= 1
        if self._unresolved == 0 and self.injector is not None:
            self.injector.close()
        self.ledger.record(
            job.job_id, finish_time, utility,
            description="SLA failed after node failure",
        )
        if self.observers:
            self._notify_observers("finished", record)

    # -- economics the policy consults -----------------------------------------
    def economically_admissible(self, job: Job, expected_cost: float) -> bool:
        return self.model.admissible(job, expected_cost)
