"""Reference rules of the time-shared cluster, for checking its fast path.

:func:`reference_rates` recomputes every running job's rate from scratch by
one pass over the job-node incidences, the way the cluster computed them
before it cached per-node share totals and folded the per-node minimum
into one gang-rate formula.  :func:`reference_feasible_nodes` and
:func:`reference_committed_seconds` redo admission and the Libra+$ quote
node by node, the way the cluster did before it kept required rates and
node loads per instant.  They read the cluster's state but keep none of
their own, so they can be compared with the cluster after any operation.
"""

from __future__ import annotations

from repro.cluster.timeshared import (
    MIN_DYNAMIC_SHARE,
    SHARE_EPS,
    ShareMode,
    TimeSharedCluster,
    TSJobState,
)


def reference_required_rate(state: TSJobState, now: float) -> float:
    """Rate ``state`` needs from ``now`` to meet its deadline on its
    estimate, capped at 1 (and 1 once the deadline has passed)."""
    est_remaining = max(state.job.estimate - state.consumed, 0.0)
    window = state.job.absolute_deadline - now
    if window <= 0.0:
        return 1.0
    return min(est_remaining / window, 1.0)


def reference_shares(cluster: TimeSharedCluster, now: float) -> dict[int, float]:
    """Every running job's share: committed (static) or its required rate
    floored at ``MIN_DYNAMIC_SHARE`` (dynamic)."""
    states = cluster._states
    if cluster.mode is ShareMode.STATIC:
        return {jid: s.share for jid, s in states.items()}
    return {
        jid: max(reference_required_rate(s, now), MIN_DYNAMIC_SHARE)
        for jid, s in states.items()
    }


def reference_rates(cluster: TimeSharedCluster) -> dict[int, float]:
    """Rate of every running job at ``cluster.sim.now``.

    On each node the jobs' shares are summed in ``node_jobs`` order.  A
    node within capacity gives each job its share plus an equal part of
    the free remainder, capped at 1; an overcommitted node scales each
    share by the node's total.  A gang job runs at the minimum over its
    nodes.
    """
    states = cluster._states
    shares = reference_shares(cluster, cluster.sim.now)
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


def reference_feasible_nodes(
    cluster: TimeSharedCluster, share: float, exclude_risky: bool = False
) -> list[int]:
    """Up nodes whose load leaves room for ``share``, best fit first.

    A node's load is its jobs' committed shares (static) or their required
    rates (dynamic), summed in ``node_jobs`` order.  With
    ``exclude_risky``, nodes holding a job past its estimate are skipped.
    """
    now = cluster.sim.now
    states = cluster._states
    risky = (
        {jid for jid, s in states.items() if s.past_estimate}
        if exclude_risky
        else set()
    )
    candidates = []
    for node, members in enumerate(cluster.node_jobs):
        if node in cluster._down or node in cluster._retired:
            continue
        if not risky.isdisjoint(members):
            continue
        if cluster.mode is ShareMode.STATIC:
            load = sum(states[j].share for j in members)
        else:
            load = sum(reference_required_rate(states[j], now) for j in members)
        if load + share <= 1.0 + SHARE_EPS:
            candidates.append((1.0 - load - share, node))
    candidates.sort()
    return [node for _, node in candidates]


def reference_committed_seconds(
    cluster: TimeSharedCluster, node: int, window: float
) -> float:
    """Processor-seconds of ``node`` committed within the next ``window``
    seconds, each job's share counted until its own deadline."""
    now = cluster.sim.now
    states = cluster._states
    return sum(
        states[j].share * max(0.0, min(states[j].job.absolute_deadline - now, window))
        for j in cluster.node_jobs[node]
    )
