"""Reference rate rule of the time-shared cluster, for checking its fast path.

:func:`reference_rates` recomputes every running job's rate from scratch by
one pass over the job-node incidences, the way the cluster computed them
before it cached per-node share totals and folded the per-node minimum
into one gang-rate formula.  It reads the cluster's state but keeps none
of its own, so it can be compared with the stored rates after any
operation.
"""

from __future__ import annotations

from repro.cluster.timeshared import (
    MIN_DYNAMIC_SHARE,
    SHARE_EPS,
    ShareMode,
    TimeSharedCluster,
)


def reference_rates(cluster: TimeSharedCluster) -> dict[int, float]:
    """Rate of every running job at ``cluster.sim.now``.

    On each node the jobs' shares are summed in ``node_jobs`` order.  A
    node within capacity gives each job its share plus an equal part of
    the free remainder, capped at 1; an overcommitted node scales each
    share by the node's total.  A gang job runs at the minimum over its
    nodes.
    """
    now = cluster.sim.now
    states = cluster._states
    if cluster.mode is ShareMode.STATIC:
        shares = {jid: s.share for jid, s in states.items()}
    else:
        shares = {
            jid: max(s.required_rate(now), MIN_DYNAMIC_SHARE)
            for jid, s in states.items()
        }
    rates = {jid: 1.0 for jid in states}
    for node_set in cluster.node_jobs:
        k = len(node_set)
        if k == 0:
            continue
        total = sum(shares[j] for j in node_set)
        if total <= 1.0 + SHARE_EPS:
            bonus = max(1.0 - total, 0.0) / k
            for j in node_set:
                rates[j] = min(rates[j], min(shares[j] + bonus, 1.0))
        else:
            for j in node_set:
                rates[j] = min(rates[j], shares[j] / total)
    return rates
