"""Utility ledger (paper §3.4).

The paper assumes "a commercial computing service has accounting and pricing
mechanisms to record resource usage information and compute usage costs to
charge service users accordingly" — this is that mechanism: an append-only
ledger of per-job earnings, with the aggregates the profitability objective
(Eq. 4) needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple


class LedgerEntry(NamedTuple):
    """One charge (or penalty, when negative) recorded at job completion.

    A named tuple, like :class:`repro.core.objectives.JobOutcome`: every
    resolved job records one, and a tuple builds several times faster than
    a frozen dataclass.
    """

    job_id: int
    time: float
    utility: float
    description: str = ""


@dataclass
class AccountingLedger:
    """Append-only record of the provider's earnings."""

    entries: list[LedgerEntry] = field(default_factory=list)

    def record(self, job_id: int, time: float, utility: float, description: str = "") -> LedgerEntry:
        entry = LedgerEntry(job_id, float(time), float(utility), description)
        self.entries.append(entry)
        return entry

    @property
    def total_utility(self) -> float:
        return math.fsum(e.utility for e in self.entries)

    @property
    def total_penalties(self) -> float:
        """Sum of negative entries (bid-based model penalties)."""
        return math.fsum(e.utility for e in self.entries if e.utility < 0)

    def by_job(self, job_id: int) -> list[LedgerEntry]:
        return [e for e in self.entries if e.job_id == job_id]

    def __len__(self) -> int:
        return len(self.entries)
