"""The :class:`Job` record.

A job carries the trace quantities (submit time, actual runtime, the user's
runtime estimate, processor count) plus the utility-computing SLA parameters
synthesised per paper §5.3 (deadline, budget, penalty rate, urgency class).

Scheduling decisions may only look at :attr:`Job.estimate` — the *actual*
runtime is revealed to the cluster model alone, which is how the paper (and
every backfilling study) models inaccurate user estimates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Urgency(enum.Enum):
    """SLA urgency class (paper §5.3): high urgency means a tight deadline
    with a high budget and a high penalty rate."""

    HIGH = "high"
    LOW = "low"


@dataclass(slots=True)
class Job:
    """One service request submitted to the commercial computing service.

    A slotted dataclass: every run builds thousands of jobs, and slots
    make each one smaller and quicker to build and read.

    Attributes
    ----------
    job_id:
        Trace-unique identifier.
    submit_time:
        ``tsu`` — submission time in seconds from trace start.
    runtime:
        Actual runtime in seconds on a dedicated node (hidden from policies).
    estimate:
        User-supplied runtime estimate ``tr`` in seconds (what policies see).
    procs:
        Number of processors required (gang-scheduled, fixed).
    deadline:
        ``d`` — relative deadline in seconds from submission. The job's SLA is
        fulfilled iff it finishes by ``submit_time + deadline``.
    budget:
        ``b`` — maximum amount the user pays for on-time completion.
    penalty_rate:
        ``pr`` — currency units forfeited per second of delay past the
        deadline (bid-based model only).
    urgency:
        High/low urgency class used by the QoS synthesis.
    trace_estimate:
        The raw estimate from the trace (or the synthetic trace-estimate
        model); :func:`repro.workload.estimates.apply_inaccuracy`
        interpolates ``estimate`` between ``runtime`` and this value.
    """

    job_id: int
    submit_time: float
    runtime: float
    estimate: float
    procs: int
    deadline: float = float("inf")
    budget: float = 0.0
    penalty_rate: float = 0.0
    urgency: Urgency = Urgency.LOW
    trace_estimate: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runtime < 0:
            raise ValueError(f"job {self.job_id}: negative runtime {self.runtime}")
        if self.estimate <= 0:
            raise ValueError(f"job {self.job_id}: non-positive estimate {self.estimate}")
        if self.procs < 1:
            raise ValueError(f"job {self.job_id}: needs >=1 processor, got {self.procs}")
        if self.deadline <= 0:
            raise ValueError(f"job {self.job_id}: non-positive deadline {self.deadline}")
        if self.trace_estimate is None:
            self.trace_estimate = self.estimate

    @property
    def absolute_deadline(self) -> float:
        """``tsu + d`` — the wall-clock instant the SLA requires."""
        return self.submit_time + self.deadline

    @property
    def work(self) -> float:
        """Total processor-seconds of real work (``runtime × procs``)."""
        return self.runtime * self.procs

    def clone(self) -> "Job":
        """An independent copy (policies mutate nothing, but the service
        layer annotates jobs; each policy run gets its own copies).

        Every field is passed to the constructor in declaration order:
        about half the cost of passing them by name, and far cheaper than
        ``dataclasses.replace``, which looks the fields up on every call.
        ``tests/test_workload_job.py`` fails if a new field is left out
        or two are swapped.
        """
        return Job(
            self.job_id,
            self.submit_time,
            self.runtime,
            self.estimate,
            self.procs,
            self.deadline,
            self.budget,
            self.penalty_rate,
            self.urgency,
            self.trace_estimate,
            dict(self.extra),
        )

    def __repr__(self) -> str:
        return (
            f"Job(#{self.job_id} tsu={self.submit_time:.0f} tr={self.runtime:.0f}"
            f" est={self.estimate:.0f} p={self.procs} d={self.deadline:.0f}"
            f" b={self.budget:.2f} pr={self.penalty_rate:.4f} {self.urgency.value})"
        )
