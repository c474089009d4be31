"""Time-shared cluster with deadline-proportional processor sharing.

This is the execution substrate of the Libra family (paper §5.2): multiple
jobs share each processor, each guaranteed at least its *committed share*
``tr_i / d_i`` (runtime estimate over deadline), with any residual capacity
distributed equally among the jobs present.

Two share disciplines are supported:

- ``ShareMode.STATIC`` (Libra, Libra+$): the share committed at admission,
  computed from the runtime *estimate*, is held until the job actually
  finishes.
- ``ShareMode.DYNAMIC`` (LibraRiskD): the share is re-derived from the
  *estimated remaining* work over the time left to the deadline, so capacity
  released by jobs running ahead of their estimates is reusable, and a job
  revealed to be under-estimated (consumed work ≥ estimated work, still
  running) is flagged as a *deadline-delay risk* on its nodes.

A parallel job occupies one share slot on each of ``procs`` nodes and
progresses gang-style at the minimum of its per-node rates.  Progress is
integrated between events.  In static mode rates only change at admissions
and completions, so the piecewise integration is exact; in dynamic mode the
required rates drift between events and the integration is a
piecewise-constant approximation refreshed at every event.

Only the earliest completion sits in the event list: one
``Priority.COMPLETION`` timer per cluster, at the smallest ``(eta, tick)``
over the running jobs.  A job's ``tick`` is drawn from the simulator's
sequence counter whenever its ETA is set, exactly as a per-job completion
event would have drawn it, so same-instant completions — in this cluster
or any other sharing the simulator — fire in the same order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

from repro.perf.registry import PERF
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, Priority
from repro.workload.job import Job

#: share floor for a dynamic-mode job past its estimate (keeps it runnable).
MIN_DYNAMIC_SHARE = 1e-3
#: numerical slack on the Σ share ≤ 1 admission test.
SHARE_EPS = 1e-9
#: remaining work below this counts as finished.
WORK_EPS = 1e-6


class ShareMode(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass
class TSJobState:
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

    @property
    def past_estimate(self) -> bool:
        """True once the job has consumed its estimated work but not finished
        — the under-estimation signal LibraRiskD keys on."""
        return self.consumed >= self.job.estimate - WORK_EPS and self.remaining_work > WORK_EPS

    def required_rate(self, now: float) -> float:
        """Average rate needed from ``now`` to still meet the deadline,
        based on the *estimated* remaining work."""
        est_remaining = max(self.job.estimate - self.consumed, 0.0)
        window = self.job.absolute_deadline - now
        if window <= 0.0:
            return 1.0
        return min(est_remaining / window, 1.0)


_COMPLETION_ORDER = attrgetter("eta", "tick")


class TimeSharedCluster:
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
        self._states: dict[int, TSJobState] = {}
        #: current share per job: the committed share (static) or the
        #: floored required rate, refreshed at every reschedule (dynamic).
        self._share: dict[int, float] = {}
        #: per node: share total summed in ``node_jobs`` order, and the
        #: residual bonus each member gets (``inf`` on an empty or an
        #: overcommitted node).  Static mode refreshes only nodes whose
        #: membership changed.
        self._total: list[float] = [0.0] * self.total_procs
        self._bonus: list[float] = [math.inf] * self.total_procs
        #: nodes whose share total exceeds 1.
        self._over: set[int] = set()
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
        now = self.sim.now
        return sum(self._states[j].required_rate(now) for j in self.node_jobs[node])

    def node_has_risk(self, node: int) -> bool:
        """Dynamic mode: any job on the node already past its estimate."""
        self._sync_progress()
        return any(self._states[j].past_estimate for j in self.node_jobs[node])

    def feasible_nodes(
        self, share: float, exclude_risky: bool = False
    ) -> list[int]:
        """Nodes able to take an additional ``share``, best-fit first.

        Best fit (paper §5.2): nodes with the least processor time left
        after placing the job are preferred, saturating each node.
        """
        self._sync_progress()
        now = self.sim.now
        static = self.mode is ShareMode.STATIC
        if not static:
            loads = {jid: s.required_rate(now) for jid, s in self._states.items()}
        risky = (
            {jid for jid, s in self._states.items() if s.past_estimate}
            if exclude_risky
            else frozenset()
        )
        candidates = []
        for node in range(len(self.committed)):
            if node in self._down or node in self._retired:
                continue
            node_set = self.node_jobs[node]
            if exclude_risky and not risky.isdisjoint(node_set):
                continue
            load = self._total[node] if static else sum(loads[j] for j in node_set)
            if load + share <= 1.0 + SHARE_EPS:
                candidates.append((1.0 - load - share, node))
        candidates.sort()
        return [node for _, node in candidates]

    def admit(
        self,
        job: Job,
        share: float,
        nodes: Sequence[int],
        on_finish: Callable[[Job, float], None],
    ) -> TSJobState:
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
        state = TSJobState(
            job=job,
            nodes=tuple(nodes),
            share=float(share),
            start_time=self.sim.now,
            remaining_work=job.runtime,
        )
        self._states[job.job_id] = state
        self._share[job.job_id] = state.share
        state._on_finish = on_finish  # type: ignore[attr-defined]
        for node in nodes:
            self.committed[node] += share
            self.node_jobs[node].add(job.job_id)
        if PERF.enabled:
            PERF.incr("cluster.time.jobs_admitted")
            PERF.observe("cluster.time.committed_share", share)
        self._reschedule(state.nodes)
        return state

    # -- execution ---------------------------------------------------------
    def _sync_progress(self) -> None:
        """Integrate work done since the last rate change."""
        now = self.sim.now
        dt = now - self._last_update
        if dt <= 0.0:
            return
        for state in self._states.values():
            done = state.rate * dt
            state.consumed += done
            state.remaining_work = max(state.remaining_work - done, 0.0)
        self._last_update = now

    def _reschedule(self, touched_nodes: Iterable[int]) -> None:
        """Re-rate jobs after the membership of ``touched_nodes`` changed,
        then re-arm the completion timer.

        Static mode re-rates only the jobs on touched nodes: a static
        job's rate depends only on the share totals of its own nodes.
        Dynamic mode re-rates every job, since required rates drift with
        the clock.  Re-rated jobs draw fresh ticks in admission order, as
        the per-job completion events they stand for would have.
        """
        if PERF.enabled:
            PERF.incr("cluster.time.reschedules")
            PERF.observe("cluster.time.active_jobs", len(self._states))
        states = self._states
        now = self.sim.now
        if self.mode is ShareMode.STATIC:
            self._refresh_nodes(touched_nodes)
            affected: set[int] = set()
            for node in touched_nodes:
                affected |= self.node_jobs[node]
            rerate = [s for jid, s in states.items() if jid in affected] if affected else []
        else:
            self._share = {
                jid: max(s.required_rate(now), MIN_DYNAMIC_SHARE)
                for jid, s in states.items()
            }
            self._refresh_nodes(range(len(self.node_jobs)))
            rerate = list(states.values())
        if rerate:
            share = self._share
            tick = self.sim.reserve_seqs(len(rerate))
            for state in rerate:
                rate = self._gang_rate(share[state.job.job_id], state.nodes)
                if rate <= 0.0:  # pragma: no cover - MIN_DYNAMIC_SHARE forbids
                    raise RuntimeError(f"job {state.job.job_id} starved (rate 0)")
                state.rate = rate
                state.eta = now + state.remaining_work / rate
                state.tick = tick
                tick += 1
        self._arm_timer()

    def _refresh_nodes(self, nodes: Iterable[int]) -> None:
        """Recompute the share total and residual bonus of ``nodes``."""
        share = self._share
        node_jobs = self.node_jobs
        totals = self._total
        bonus = self._bonus
        over = self._over
        for node in nodes:
            members = node_jobs[node]
            total = sum(map(share.__getitem__, members))
            totals[node] = total
            if total > 1.0 + SHARE_EPS:
                bonus[node] = math.inf
                over.add(node)
            else:
                bonus[node] = max(1.0 - total, 0.0) / len(members) if members else math.inf
                over.discard(node)

    def _gang_rate(self, share: float, nodes: tuple[int, ...]) -> float:
        """Rate of a job holding ``share`` on each of ``nodes``.

        It is ``min(1, share + min bonus over its nodes)``, and no more
        than ``share / total`` on an overcommitted node.  ``fl(share + b)``
        is monotone in ``b``, so adding the smallest bonus gives the same
        float as the minimum of the per-node sums.
        """
        rate = share + min(map(self._bonus.__getitem__, nodes))
        if rate > 1.0:
            rate = 1.0
        over = self._over
        if over and not over.isdisjoint(nodes):
            totals = self._total
            for node in nodes:
                if node in over:
                    r = share / totals[node]
                    if r < rate:
                        rate = r
        return rate

    def _arm_timer(self) -> None:
        """Point the completion timer at the smallest (eta, tick)."""
        timer = self._timer
        if not self._states:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        head = min(self._states.values(), key=_COMPLETION_ORDER)
        if timer is not None:
            if timer.seq == head.tick:
                return
            timer.cancel()
        self._timer = self.sim.schedule_reserved(
            head.eta, head.tick, self._complete, head, priority=Priority.COMPLETION
        )

    def _release(self, state: TSJobState) -> None:
        """Drop a job from the books and free its share slots."""
        jid = state.job.job_id
        del self._states[jid]
        del self._share[jid]
        for node in state.nodes:
            self.committed[node] -= state.share
            if abs(self.committed[node]) < SHARE_EPS:
                self.committed[node] = 0.0
            self.node_jobs[node].discard(jid)

    def _complete(self, state: TSJobState) -> None:
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

    def committed_seconds_in_window(self, node: int, window: float) -> float:
        """Processor-seconds of ``node`` committed to current jobs within the
        next ``window`` seconds (Libra+$'s RESMax − RESFree).

        Each job's share occupies the node only until its own deadline —
        a reservation expiring early in the window leaves the remainder
        free for the job being priced.
        """
        self._sync_progress()
        now = self.sim.now
        return sum(
            self._states[j].share
            * max(0.0, min(self._states[j].job.absolute_deadline - now, window))
            for j in self.node_jobs[node]
        )

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
    def active_jobs(self) -> list[TSJobState]:
        return list(self._states.values())

    def is_running(self, job_id: int) -> bool:
        return job_id in self._states

    def state_of(self, job_id: int) -> TSJobState:
        return self._states[job_id]

    def total_committed(self) -> float:
        return sum(self.committed)

    def utilization(self) -> float:
        """Fraction of total capacity currently committed."""
        return self.total_committed() / self.total_procs if self.total_procs else 0.0
