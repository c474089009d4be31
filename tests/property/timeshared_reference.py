"""Reference rules of the time-shared cluster, for checking its fast path.

:func:`reference_rates` recomputes every running job's rate from scratch by
one pass over the job-node incidences, the way the cluster computed them
before it cached per-node share totals and folded the per-node minimum
into one gang-rate formula.  :func:`reference_feasible_nodes` and
:func:`reference_committed_seconds` redo admission and the Libra+$ quote
node by node, the way the cluster did before it kept required rates and
node loads per instant.  They read the cluster's state but keep none of
their own, so they can be compared with the cluster after any operation.

:class:`ReferenceTimeSharedCluster` is the cluster as it was before its
per-job state moved into arrays, with a Python loop over the running jobs
for progress, required rates, the gang minimum and the completion head,
and per-instant caches of required rates, node loads and jobs past their
estimate.  Driven through the same operations on its own simulator, it
must agree with the cluster bit for bit.

Every per-node float total here is :func:`admission_fold`: the node's
values added one at a time from 0.0 in admission order, the one summation
rule of the cluster, written as a loop rather than taken from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Collection, Iterable, Optional, Sequence

from repro.cluster.timeshared import (
    MIN_DYNAMIC_SHARE,
    SHARE_EPS,
    WORK_EPS,
    ShareMode,
    TimeSharedCluster,
    TSJobState,
)
from repro.perf.registry import PERF
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, Priority
from repro.workload.job import Job


def admission_fold(order: Iterable[int], members: Collection[int],
                   value: Callable[[int], float]) -> float:
    """``value`` of every job in ``members``, added one at a time from 0.0 in
    the order of ``order``, which lists every running job by admission."""
    total = 0.0
    for jid in order:
        if jid in members:
            total += value(jid)
    return total


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

    On each node the jobs' shares are summed in admission order.  A
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
        total = admission_fold(states, node_set, shares.__getitem__)
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
    rates (dynamic), summed in admission order.  With
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
            load = admission_fold(states, members, lambda j: states[j].share)
        else:
            load = admission_fold(
                states, members, lambda j: reference_required_rate(states[j], now))
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
    return admission_fold(
        states, cluster.node_jobs[node],
        lambda j: states[j].share * max(0.0, min(states[j].job.absolute_deadline - now, window)),
    )


@dataclass
class ReferenceTSJobState:
    """Run state of one admitted job."""

    job: Job
    nodes: tuple[int, ...]
    share: float  # committed (static) share per node
    start_time: float
    remaining_work: float  # seconds of dedicated-CPU work left (actual)
    consumed: float = 0.0  # seconds of work done so far
    rate: float = 0.0
    #: projected finish time at the current rate.
    eta: float = math.inf
    #: simulator sequence number drawn when ``eta`` was set; orders
    #: same-instant completions.
    tick: int = -1
    #: the job's absolute deadline, read once at admission.
    absolute_deadline: float = field(init=False)

    def __post_init__(self) -> None:
        self.absolute_deadline = self.job.absolute_deadline

    @property
    def past_estimate(self) -> bool:
        """True once the job has consumed its estimated work but not finished
        — the under-estimation signal LibraRiskD keys on."""
        return self.consumed >= self.job.estimate - WORK_EPS and self.remaining_work > WORK_EPS

    def required_rate(self, now: float) -> float:
        """Average rate needed from ``now`` to still meet the deadline,
        based on the *estimated* remaining work."""
        est_remaining = max(self.job.estimate - self.consumed, 0.0)
        window = self.absolute_deadline - now
        if window <= 0.0:
            return 1.0
        return min(est_remaining / window, 1.0)


_COMPLETION_ORDER = attrgetter("eta", "tick")


class ReferenceTimeSharedCluster:
    """Deadline-proportional processor-sharing machine."""

    def __init__(
        self,
        sim: Simulator,
        total_procs: int = 128,
        mode: ShareMode = ShareMode.STATIC,
    ) -> None:
        if total_procs < 1:
            raise ValueError("cluster needs at least one processor")
        self.sim = sim
        self.total_procs = int(total_procs)
        self.mode = mode
        self.committed: list[float] = [0.0] * self.total_procs
        self.node_jobs: list[set[int]] = [set() for _ in range(self.total_procs)]
        self._states: dict[int, ReferenceTSJobState] = {}
        #: current share per job: the committed share (static) or the
        #: floored required rate, refreshed at every reschedule (dynamic).
        self._share: dict[int, float] = {}
        #: per node: share total summed in admission order, and the
        #: residual bonus each member gets (``inf`` on an empty or an
        #: overcommitted node).  Static mode refreshes only nodes whose
        #: membership changed.
        self._total: list[float] = [0.0] * self.total_procs
        self._bonus: list[float] = [math.inf] * self.total_procs
        #: nodes whose share total exceeds 1.
        self._over: set[int] = set()
        #: what one instant's admissions share, derived on first use and
        #: dropped when progress is next integrated.  Dynamic mode: every
        #: job's required rate (``None`` until derived), and per node the
        #: sum of its jobs' required rates in admission order
        #: (0.0 on an empty node, ``None`` until derived again after a
        #: membership change).  Both modes: the jobs past their estimate,
        #: for the risk filter.
        self._rates: Optional[dict[int, float]] = None
        self._raw: list[Optional[float]] = [0.0] * self.total_procs
        self._risky: Optional[set[int]] = None
        #: the completion timer, armed at the smallest (eta, tick).
        self._timer: Optional[EventHandle] = None
        self._last_update = sim.now
        #: nodes currently failed (fault injection); excluded from admission.
        self._down: set[int] = set()
        #: nodes decommissioned for good (elastic capacity); ids stay stable.
        self._retired: set[int] = set()

    # -- admission helpers -------------------------------------------------
    def node_share_load(self, node: int) -> float:
        """Current admission load of a node: committed static shares, or the
        sum of required rates in dynamic mode."""
        if self.mode is ShareMode.STATIC:
            return self.committed[node]
        self._sync_progress()
        return self._raw_loads()[node]

    def node_has_risk(self, node: int) -> bool:
        """Any job on the node already past its estimate (LibraRiskD's risk)."""
        self._sync_progress()
        return not self._risky_jobs().isdisjoint(self.node_jobs[node])

    def feasible_nodes(
        self, share: float, exclude_risky: bool = False
    ) -> list[int]:
        """Nodes able to take an additional ``share``, best-fit first.

        Best fit (paper §5.2): nodes with the least processor time left
        after placing the job are preferred, saturating each node.  A
        node's load is its committed share total (static) or the sum of
        its jobs' required rates (dynamic).
        """
        self._sync_progress()
        loads = self._total if self.mode is ShareMode.STATIC else self._raw_loads()
        excluded = self._down | self._retired
        if exclude_risky:
            states = self._states
            for jid in self._risky_jobs():
                excluded.update(states[jid].nodes)
        limit = 1.0 + SHARE_EPS
        candidates = [
            (1.0 - load - share, node)
            for node, load in enumerate(loads)
            if load + share <= limit and node not in excluded
        ]
        candidates.sort()
        return [node for _, node in candidates]

    def committed_seconds(self, nodes: Sequence[int], window: float) -> list[float]:
        """Processor-seconds of each of ``nodes`` committed to current jobs
        within the next ``window`` seconds (Libra+$'s RESMax − RESFree).

        Each job's share occupies a node only until its own deadline — a
        reservation expiring early in the window leaves the remainder
        free for the job being priced.  A job holding several of the
        nodes is counted once and its seconds reused on each.
        """
        self._sync_progress()
        now = self.sim.now
        states = self._states
        node_jobs = self.node_jobs
        held = {}
        for jid in set().union(*(node_jobs[node] for node in nodes)):
            state = states[jid]
            held[jid] = state.share * max(0.0, min(state.absolute_deadline - now, window))
        return [admission_fold(states, node_jobs[node], held.__getitem__) for node in nodes]

    def _required_rates(self) -> dict[int, float]:
        """Every job's required rate at the current instant, derived once
        per instant and kept up to date by admissions and releases."""
        rates = self._rates
        if rates is None:
            now = self.sim.now
            rates = self._rates = {
                jid: s.required_rate(now) for jid, s in self._states.items()
            }
        return rates

    def _raw_loads(self) -> list[float]:
        """Per node, the sum of its jobs' required rates now."""
        raw = self._raw
        rates = self._required_rates().__getitem__
        node_jobs = self.node_jobs
        for node, load in enumerate(raw):
            if load is None:
                raw[node] = admission_fold(self._states, node_jobs[node], rates)
        return raw  # type: ignore[return-value]

    def _risky_jobs(self) -> set[int]:
        """Jobs past their estimate at the current instant."""
        risky = self._risky
        if risky is None:
            risky = self._risky = {
                jid for jid, s in self._states.items() if s.past_estimate
            }
        return risky

    def admit(
        self,
        job: Job,
        share: float,
        nodes: Sequence[int],
        on_finish: Callable[[Job, float], None],
    ) -> ReferenceTSJobState:
        """Commit ``share`` on ``nodes`` and start ``job`` immediately."""
        if len(nodes) != job.procs:
            raise ValueError(
                f"job {job.job_id} needs {job.procs} nodes, got {len(nodes)}"
            )
        if len(set(nodes)) != len(nodes):
            raise ValueError("node list contains duplicates")
        if not 0.0 < share <= 1.0 + SHARE_EPS:
            raise ValueError(f"share must be in (0, 1], got {share}")
        if job.job_id in self._states:
            raise ValueError(f"job {job.job_id} is already running")
        unavailable = (self._down | self._retired) if (self._down or self._retired) else ()
        if unavailable and not set(nodes).isdisjoint(unavailable):
            raise ValueError(
                f"cannot admit job {job.job_id} on failed/retired node(s) "
                f"{sorted(set(nodes) & set(unavailable))}"
            )
        self._sync_progress()
        state = ReferenceTSJobState(
            job=job,
            nodes=tuple(nodes),
            share=float(share),
            start_time=self.sim.now,
            remaining_work=job.runtime,
        )
        jid = job.job_id
        self._states[jid] = state
        self._share[jid] = state.share
        state._on_finish = on_finish  # type: ignore[attr-defined]
        committed = self.committed
        node_jobs = self.node_jobs
        raw = self._raw
        for node in nodes:
            committed[node] += share
            node_jobs[node].add(jid)
            raw[node] = None
        if self._rates is not None:
            self._rates[jid] = state.required_rate(self.sim.now)
        if self._risky is not None and state.past_estimate:
            self._risky.add(jid)
        if PERF.enabled:
            PERF.incr("cluster.time.jobs_admitted")
            PERF.observe("cluster.time.committed_share", share)
        self._reschedule(state.nodes)
        return state

    # -- execution ---------------------------------------------------------
    def _sync_progress(self) -> None:
        """Integrate work done since the last rate change.  Once the clock
        has moved, what was kept for the previous instant is dropped."""
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0.0:
            return
        for state in self._states.values():
            done = state.rate * dt
            state.consumed += done
            left = state.remaining_work - done
            state.remaining_work = 0.0 if left < 0.0 else left  # = max(left, 0.0)
        self._last_update = now
        self._risky = None
        if self._rates is not None:
            self._rates = None
            self._raw = [None if members else 0.0 for members in self.node_jobs]

    def _reschedule(self, touched_nodes: Iterable[int]) -> None:
        """Re-rate jobs after the membership of ``touched_nodes`` changed,
        then re-arm the completion timer.

        Static mode re-rates only the jobs on touched nodes: a static
        job's rate depends only on the share totals of its own nodes.
        Dynamic mode re-rates every job, since required rates drift with
        the clock, and so finds the timer's new head on the way.  Re-rated
        jobs draw fresh ticks in admission order, as the per-job completion
        events they stand for would have.

        A job's rate is ``min(1, share + min bonus over its nodes)``, and
        no more than ``share / total`` on an overcommitted node.
        ``fl(share + b)`` is monotone in ``b``, so adding the smallest
        bonus gives the same float as the minimum of the per-node sums.
        """
        if PERF.enabled:
            PERF.incr("cluster.time.reschedules")
            PERF.observe("cluster.time.active_jobs", len(self._states))
        states = self._states
        now = self.sim.now
        static = self.mode is ShareMode.STATIC
        if static:
            self._refresh_nodes(touched_nodes)
            affected: set[int] = set()
            for node in touched_nodes:
                affected |= self.node_jobs[node]
            rerate = [s for jid, s in states.items() if jid in affected] if affected else []
        else:
            self._refresh_dynamic(touched_nodes)
            rerate = list(states.values())
        head = None
        if rerate:
            share = self._share
            bonus = self._bonus.__getitem__
            over = self._over
            totals = self._total
            tick = self.sim.reserve_seqs(len(rerate))
            first = math.inf
            for state in rerate:
                nodes = state.nodes
                own = share[state.job.job_id]
                rate = own + min(map(bonus, nodes))
                if rate > 1.0:
                    rate = 1.0
                if over and not over.isdisjoint(nodes):
                    for node in nodes:
                        if node in over:
                            r = own / totals[node]
                            if r < rate:
                                rate = r
                if rate <= 0.0:  # pragma: no cover - MIN_DYNAMIC_SHARE forbids
                    raise RuntimeError(f"job {state.job.job_id} starved (rate 0)")
                state.rate = rate
                state.eta = eta = now + state.remaining_work / rate
                state.tick = tick
                tick += 1
                # Ticks rise through the loop, so the first smallest ETA
                # is the smallest (eta, tick).
                if eta < first:
                    first = eta
                    head = state
        self._arm_timer(None if static else head)

    def _refresh_nodes(self, nodes: Iterable[int]) -> None:
        """Recompute the share total and residual bonus of ``nodes``."""
        share = self._share
        node_jobs = self.node_jobs
        totals = self._total
        bonus = self._bonus
        over = self._over
        for node in nodes:
            members = node_jobs[node]
            total = admission_fold(self._states, members, share.__getitem__)
            totals[node] = total
            if total > 1.0 + SHARE_EPS:
                bonus[node] = math.inf
                over.add(node)
            elif members:
                free = 1.0 - total
                bonus[node] = (0.0 if free < 0.0 else free) / len(members)
                over.discard(node)
            else:
                bonus[node] = math.inf
                over.discard(node)

    def _refresh_dynamic(self, touched_nodes: Iterable[int]) -> None:
        """Dynamic mode: floor every required rate into a share and refresh
        every occupied node, and the touched nodes that became empty.

        A node none of whose jobs is floored has a share total equal to its
        raw required-rate sum — the same floats added in the same order —
        so a raw sum still valid at this instant is reused, and a fresh
        total is kept as the node's raw sum.  A node is summed again only
        when its raw sum is stale (its membership changed, or the clock
        moved) or it holds a floored job.
        """
        rates = self._required_rates()
        share = self._share = {
            jid: MIN_DYNAMIC_SHARE if r < MIN_DYNAMIC_SHARE else r
            for jid, r in rates.items()
        }
        states = self._states
        floored = {
            node
            for jid, r in rates.items() if r < MIN_DYNAMIC_SHARE
            for node in states[jid].nodes
        }
        raw = self._raw
        totals = self._total
        bonus = self._bonus
        over = self._over
        over.clear()
        limit = 1.0 + SHARE_EPS
        shares = share.__getitem__
        for node, members in enumerate(self.node_jobs):
            if not members:
                continue
            if node in floored:
                total = admission_fold(states, members, shares)
            else:
                total = raw[node]
                if total is None:
                    total = raw[node] = admission_fold(states, members, shares)
            totals[node] = total
            if total > limit:
                bonus[node] = math.inf
                over.add(node)
            else:
                free = 1.0 - total
                bonus[node] = (0.0 if free < 0.0 else free) / len(members)
        self._refresh_nodes(n for n in touched_nodes if not self.node_jobs[n])

    def _arm_timer(self, head: Optional[ReferenceTSJobState] = None) -> None:
        """Point the completion timer at the smallest (eta, tick), which is
        ``head`` when the caller already knows it."""
        timer = self._timer
        if not self._states:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        if head is None:
            head = min(self._states.values(), key=_COMPLETION_ORDER)
        if timer is not None:
            if timer.seq == head.tick:
                return
            timer.cancel()
        self._timer = self.sim.schedule_reserved(
            head.eta, head.tick, self._complete, head, priority=Priority.COMPLETION
        )

    def _release(self, state: ReferenceTSJobState) -> None:
        """Drop a job from the books and free its share slots."""
        jid = state.job.job_id
        del self._states[jid]
        del self._share[jid]
        if self._rates is not None:
            del self._rates[jid]
        if self._risky is not None:
            self._risky.discard(jid)
        committed = self.committed
        raw = self._raw
        for node in state.nodes:
            committed[node] -= state.share
            if abs(committed[node]) < SHARE_EPS:
                committed[node] = 0.0
            members = self.node_jobs[node]
            members.discard(jid)
            raw[node] = None if members else 0.0

    def _complete(self, state: ReferenceTSJobState) -> None:
        self._sync_progress()
        # Authoritative: every rate change moves the ETA, so snap the float
        # residual rather than rescheduling a sub-resolution eta.
        state.consumed += state.remaining_work
        state.remaining_work = 0.0
        self._release(state)
        if PERF.enabled:
            PERF.incr("cluster.time.jobs_completed")
        self._reschedule(state.nodes)
        state._on_finish(state.job, self.sim.now)  # type: ignore[attr-defined]

    # -- fault injection -----------------------------------------------------
    def enable_node_tracking(self) -> None:
        """No-op: the time-shared cluster always tracks per-node placement.

        Present so the fault injector can call one uniform method on any
        cluster type.
        """

    def fail_node(self, node_id: int) -> list[tuple[Job, float]]:
        """Take ``node_id`` down; kill every job with a share slot on it.

        Returns ``(job, progress)`` pairs, where ``progress`` is the
        dedicated-CPU seconds of work the job had completed.  Shares the
        victims held on *other* nodes are released and the surviving jobs'
        rates are recomputed.
        """
        self._check_node_id(node_id)
        if node_id in self._down:
            raise ValueError(f"node {node_id} is already down")
        self._sync_progress()
        self._down.add(node_id)
        victims = [self._states[jid] for jid in sorted(self.node_jobs[node_id])]
        killed: list[tuple[Job, float]] = []
        touched: set[int] = set()
        for state in victims:
            self._release(state)
            touched.update(state.nodes)
            progress = min(max(state.consumed, 0.0), state.job.runtime)
            killed.append((state.job, progress))
        if PERF.enabled and killed:
            PERF.incr("cluster.time.jobs_failed", len(killed))
        self._reschedule(touched)
        return killed

    def repair_node(self, node_id: int) -> None:
        """Bring a failed node back; it becomes admissible again."""
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")
        if node_id not in self._down:
            raise ValueError(f"node {node_id} is not down")
        self._down.discard(node_id)

    def down_nodes(self) -> frozenset[int]:
        return frozenset(self._down)

    def _check_node_id(self, node_id: int) -> None:
        # Node ids are stable for life: the valid range is everything ever
        # created — retirement shrinks capacity, not the id space.
        if not 0 <= node_id < len(self.committed):
            raise ValueError(f"no such node: {node_id}")
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")

    # -- elastic capacity -----------------------------------------------------
    def commission_node(self) -> int:
        """Add a node to the machine; returns its (fresh, stable) id."""
        node_id = len(self.committed)
        self.committed.append(0.0)
        self.node_jobs.append(set())
        self._total.append(0.0)
        self._bonus.append(math.inf)
        self._raw.append(0.0)
        self.total_procs += 1
        if PERF.enabled:
            PERF.incr("cluster.time.nodes_commissioned")
        return node_id

    def decommission_node(self, node_id: int) -> list[tuple[Job, float]]:
        """Retire ``node_id`` for good; returns the jobs it killed.

        A failure that never repairs: jobs with a share slot on the node
        are terminated exactly as :meth:`fail_node` terminates them, and
        capacity shrinks by one.
        """
        killed = self.fail_node(node_id)
        self._down.discard(node_id)
        self._retired.add(node_id)
        self.total_procs -= 1
        if PERF.enabled:
            PERF.incr("cluster.time.nodes_decommissioned")
        return killed

    # -- introspection -------------------------------------------------------
    def active_jobs(self) -> list[ReferenceTSJobState]:
        return list(self._states.values())

    def is_running(self, job_id: int) -> bool:
        return job_id in self._states

    def state_of(self, job_id: int) -> ReferenceTSJobState:
        return self._states[job_id]

    def total_committed(self) -> float:
        return math.fsum(s.share for s in self._states.values() for _ in s.nodes)

    def utilization(self) -> float:
        """Fraction of total capacity currently committed."""
        return self.total_committed() / self.total_procs if self.total_procs else 0.0
