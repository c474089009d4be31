"""Libra+$ — Libra with the enhanced pricing function (Table V).

Identical scheduling to :class:`repro.policies.libra.Libra`; the difference
is purely economic (paper §5.2): each node quotes
``P_ij = α·PBase_j + β·PUtil_ij`` where the utilisation component
``PUtil_ij = RESMax_j / RESFree_ij × PBase_j`` grows as the node's share
commitment over the job's deadline window saturates.  The job is charged the
*highest* node price among its allocation, times its runtime estimate.  As
workload rises the quote rises, more jobs fail the budget check, and the
accepted ones pay more — which is how Libra+$ trades SLA acceptance for
profitability (paper §6.1).
"""

from __future__ import annotations

from repro.economy.pricing import libra_dollar_cost
from repro.policies.libra import Libra
from repro.workload.job import Job


class LibraDollar(Libra):
    name = "Libra+$"

    def quote(self, job: Job, nodes: list[int]) -> float:
        committed = self.cluster.committed_seconds(nodes, job.deadline)
        return libra_dollar_cost(job, committed, self.pricing)

    def expected_cost(self, job: Job) -> float:  # pragma: no cover - quote()
        # Libra+$'s price depends on the allocation; the node-aware quote()
        # supersedes this allocation-free fallback (idle-cluster price).
        return libra_dollar_cost(job, [0.0] * job.procs, self.pricing)
