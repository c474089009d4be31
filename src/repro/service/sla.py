"""Per-job SLA lifecycle records.

A job submitted to the commercial computing service moves through::

    SUBMITTED ──► REJECTED                      (admission control / budget)
        │
        └──────► ACCEPTED ──► RUNNING ──► FINISHED
                     ▲            │
                     └─interrupt──┘          (node failure, job recoverable)

Acceptance is the SLA commitment instant; the paper's *wait* objective
measures submission → execution start, and *reliability* measures how many
ACCEPTED SLAs finish within their deadline.

Fault injection adds two transitions: :meth:`SLARecord.interrupt` moves a
RUNNING job back to ACCEPTED when a node failure kills it but the policy
will re-run it (the SLA commitment survives the failure, so the *first*
start time is kept for the wait objective), and :meth:`SLARecord.fail`
terminally abandons the SLA when the provider cannot re-run the job —
the deadline is missed and any penalty owed is charged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.objectives import JobOutcome
from repro.workload.job import Job


class SLAStatus(enum.Enum):
    SUBMITTED = "submitted"
    REJECTED = "rejected"
    ACCEPTED = "accepted"
    RUNNING = "running"
    FINISHED = "finished"


# The members as module globals: on CPython 3.11 reading ``SLAStatus.X``
# goes through the enum metaclass and costs several times a global read,
# and every SLA transition makes such a test.
SUBMITTED = SLAStatus.SUBMITTED
REJECTED = SLAStatus.REJECTED
ACCEPTED = SLAStatus.ACCEPTED
RUNNING = SLAStatus.RUNNING
FINISHED = SLAStatus.FINISHED
#: statuses of an SLA the provider committed to.
COMMITTED = (ACCEPTED, RUNNING, FINISHED)
#: statuses of an SLA not yet resolved (neither rejected nor finished).
UNRESOLVED = (SUBMITTED, ACCEPTED, RUNNING)


@dataclass(slots=True)
class SLARecord:
    """Lifecycle of one service request (slotted: one per job per run)."""

    job: Job
    status: SLAStatus = SUBMITTED
    accept_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    quoted_cost: float = 0.0
    utility: float = 0.0
    reject_reason: Optional[str] = None
    #: True when the system terminated the job at its runtime-estimate
    #: limit instead of letting it complete (kill-at-estimate discipline).
    killed: bool = False
    #: True when the SLA was terminally abandoned after a node failure.
    failed: bool = False
    #: times a node failure interrupted the job's execution.
    interruptions: int = 0

    # -- transitions ---------------------------------------------------------
    def reject(self, reason: str) -> None:
        self._require(SUBMITTED, "reject")
        self.status = REJECTED
        self.reject_reason = reason

    def accept(self, time: float, quoted_cost: float = 0.0) -> None:
        self._require(SUBMITTED, "accept")
        self.status = ACCEPTED
        self.accept_time = time
        self.quoted_cost = quoted_cost

    def start(self, time: float) -> None:
        self._require(ACCEPTED, "start")
        self.status = RUNNING
        # A restart after an interruption keeps the original start time:
        # the wait objective measures submission → *first* execution start.
        if self.start_time is None:
            self.start_time = time

    def finish(self, time: float, utility: float) -> None:
        self._require(RUNNING, "finish")
        self.status = FINISHED
        self.finish_time = time
        self.utility = utility

    def kill(self, time: float) -> None:
        """The system terminated the job at its estimate limit: the SLA is
        unfulfilled and the user owes nothing for the incomplete work."""
        self._require(RUNNING, "kill")
        self.status = FINISHED
        self.finish_time = time
        self.utility = 0.0
        self.killed = True

    def interrupt(self) -> None:
        """A node failure killed the execution but the job will be re-run:
        the SLA commitment stands, so the record returns to ACCEPTED."""
        self._require(RUNNING, "interrupt")
        self.status = ACCEPTED
        self.interruptions += 1

    def fail(self, time: float, utility: float) -> None:
        """Terminally abandon the SLA after a node failure.

        The provider keeps whatever penalty the economic model dictates
        (``utility`` ≤ 0: no revenue for unfinished work, but penalties for
        the broken commitment are charged).  Allowed from RUNNING (failure
        with no recovery path) and from an interrupted ACCEPTED state (the
        re-queued job became infeasible before it could restart).
        """
        if not (
            self.status is RUNNING
            or (self.status is ACCEPTED and self.interruptions > 0)
        ):
            self._require(RUNNING, "fail")
        self.status = FINISHED
        self.finish_time = time
        self.utility = utility
        self.failed = True

    def _require(self, expected: SLAStatus, action: str) -> None:
        if self.status is not expected:
            raise ValueError(
                f"job {self.job.job_id}: cannot {action} from status {self.status.value}"
            )

    # -- derived -------------------------------------------------------------
    @property
    def accepted(self) -> bool:
        return self.status in COMMITTED

    @property
    def deadline_met(self) -> bool:
        return (
            self.status is FINISHED
            and not self.killed
            and not self.failed
            and self.finish_time is not None
            and self.finish_time <= self.job.absolute_deadline + 1e-6
        )

    def outcome(self) -> JobOutcome:
        """The immutable record the risk analysis consumes."""
        job = self.job
        return JobOutcome(
            job.job_id,
            job.submit_time,
            job.budget,
            self.accepted,
            self.start_time,
            self.finish_time,
            self.deadline_met,
            self.utility,
        )
