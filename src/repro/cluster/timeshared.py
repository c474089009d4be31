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

Per-job run state lives in arrays, one row per running job in admission
order, and each job's nodes in one flat incidence array grouped by row, so
progress, required rates, gang minima and ETAs are a few array operations
per event.  Each applies the same IEEE operations in the same order as a
loop over the jobs would.  Every per-node float total (share totals,
dynamic loads, Libra+$'s held seconds) is one fold over the incidences:
each node's values added one at a time from 0.0 in admission order, so a
total never depends on set iteration order or on the interpreter's
``sum()``.

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
from typing import Callable, Collection, Optional, Sequence, Union

import numpy as np

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

#: rows of the per-job block; a tick is an integer held exactly as a float.
_CONSUMED, _REMAINING, _RATE, _ETA, _TICK, _SHARE, _ESTIMATE, _DEADLINE = range(8)


class ShareMode(enum.Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


class TSJobState:
    """Run state of one admitted job.

    While the job runs, its progress, rate, ETA and tick read through to
    the cluster's arrays; when it is released they freeze at their final
    values.
    """

    __slots__ = ("job", "nodes", "share", "start_time", "absolute_deadline",
                 "_cluster", "_row", "_final", "_on_finish")

    def __init__(self, job: Job, nodes: tuple[int, ...], share: float,
                 start_time: float, cluster: "TimeSharedCluster", row: int,
                 on_finish: Callable[[Job, float], None]) -> None:
        self.job = job
        self.nodes = nodes
        #: committed (static) share per node.
        self.share = share
        self.start_time = start_time
        #: the job's absolute deadline, read once at admission.
        self.absolute_deadline = job.absolute_deadline
        self._cluster: Optional[TimeSharedCluster] = cluster
        self._row = row
        self._final: list = []
        self._on_finish = on_finish

    def _value(self, field: int) -> float:
        cluster = self._cluster
        if cluster is None:
            return self._final[field]
        return cluster._f[field, self._row].item()

    @property
    def consumed(self) -> float:
        """Seconds of work done so far."""
        return self._value(_CONSUMED)

    @property
    def remaining_work(self) -> float:
        """Seconds of dedicated-CPU work left (actual)."""
        return self._value(_REMAINING)

    @property
    def rate(self) -> float:
        return self._value(_RATE)

    @property
    def eta(self) -> float:
        """Projected finish time at the current rate."""
        return self._value(_ETA)

    @property
    def tick(self) -> int:
        """Simulator sequence number drawn when ``eta`` was set; orders
        same-instant completions."""
        return int(self._value(_TICK))

    @property
    def past_estimate(self) -> bool:
        """True once the job has consumed its estimated work but not finished
        — the under-estimation signal LibraRiskD keys on."""
        return self.consumed >= self.job.estimate - WORK_EPS and self.remaining_work > WORK_EPS

    def _freeze(self, finished: bool) -> None:
        """Keep the final numbers, as the column is about to be reused.  A
        finished job's float residual of work is snapped into ``consumed``."""
        final = self._cluster._f[:_SHARE, self._row].tolist()
        if finished:
            final[_CONSUMED] += final[_REMAINING]
            final[_REMAINING] = 0.0
        self._final = final
        self._cluster = None


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
        n_nodes = self.total_procs
        self.node_jobs: list[set[int]] = [set() for _ in range(n_nodes)]
        self._states: dict[int, TSJobState] = {}
        # Per job, one column per running job, in admission order, of the
        # block ``_f`` (rows ``_CONSUMED`` … ``_DEADLINE``), each row also
        # bound to its own name by :meth:`_bind_rows`.  ``_jobs`` names
        # each column's job.  ``_nodes`` holds every job's nodes back to
        # back in column order, ``_n_inc`` of them in use, ``_owner`` the
        # column of each of them, and ``_start`` the first of each job's.
        self._n = 0
        self._bind_rows(np.zeros((8, 64)), np.zeros(64, dtype=np.int64))
        self._jobs: list[TSJobState] = []
        self._nodes = np.zeros(4 * n_nodes, dtype=np.int64)
        self._owner = np.zeros(4 * n_nodes, dtype=np.int64)
        self._n_inc = 0
        #: per node, as of the last re-rate: share total, the residual
        #: bonus each member gets (``inf`` on an empty or an overcommitted
        #: node), and whether the total exceeds ``1 + SHARE_EPS``.
        self._total = np.zeros(n_nodes)
        self._bonus = np.full(n_nodes, math.inf)
        self._over = np.zeros(n_nodes, dtype=bool)
        #: nodes failed or retired; excluded from admission.
        self._unavail = np.zeros(n_nodes, dtype=bool)
        #: the completion timer, armed at the smallest (eta, tick).
        self._timer: Optional[EventHandle] = None
        self._last_update = sim.now
        #: nodes currently failed (fault injection); excluded from admission.
        self._down: set[int] = set()
        #: nodes decommissioned for good (elastic capacity); ids stay stable.
        self._retired: set[int] = set()

    def _bind_rows(self, f: np.ndarray, start: np.ndarray) -> None:
        """Adopt the per-job arrays and name the block's rows."""
        self._f = f
        self._start = start
        (self._consumed, self._remaining, self._rate, self._eta, self._tick,
         self._committed_share, self._estimate, self._deadline) = f

    def _fold(self, values: np.ndarray) -> np.ndarray:
        """Per node, the sum of ``values`` (one per job column) over the
        node's jobs, added one at a time from 0.0 in admission order.

        ``np.bincount`` walks the incidences in order and adds each weight
        into its node's bin in C, so a total is the same left fold on every
        interpreter, whatever order ``node_jobs`` iterates in.
        """
        inc = self._n_inc
        if not inc:  # bincount over no weights returns ints
            return np.zeros(len(self.node_jobs))
        return np.bincount(self._nodes[:inc], weights=values[self._owner[:inc]],
                           minlength=len(self.node_jobs))

    # -- admission helpers -------------------------------------------------
    def node_share_load(self, node: int) -> float:
        """Current admission load of a node: its committed share total, or
        the sum of required rates in dynamic mode."""
        if self.mode is ShareMode.STATIC:
            return float(self._total[node])
        self._sync_progress()
        return float(self._fold(self._required_rates())[node])

    def node_has_risk(self, node: int) -> bool:
        """Any job on the node already past its estimate (LibraRiskD's risk)."""
        self._sync_progress()
        return bool(self._risky_nodes()[node])

    def feasible_nodes(
        self, share: float, exclude_risky: bool = False
    ) -> list[int]:
        """Nodes able to take an additional ``share``, best-fit first.

        Best fit (paper §5.2): nodes with the least processor time left
        after placing the job are preferred, saturating each node.  A
        node's load is its committed share total (static) or the sum of
        its jobs' required rates (dynamic).  Ties go to the lower node id.
        """
        self._sync_progress()
        if self.mode is ShareMode.STATIC:
            loads = self._total
        else:
            loads = self._fold(self._required_rates())
        fits = loads + share <= 1.0 + SHARE_EPS
        if self._down or self._retired:
            fits &= ~self._unavail
        if exclude_risky:
            fits &= ~self._risky_nodes()
        nodes = fits.nonzero()[0]
        left = (1.0 - loads[nodes]) - share
        return nodes[left.argsort(kind="stable")].tolist()

    def committed_seconds(self, nodes: Sequence[int], window: float) -> list[float]:
        """Processor-seconds of each of ``nodes`` committed to current jobs
        within the next ``window`` seconds (Libra+$'s RESMax − RESFree).

        Each job's share occupies a node only until its own deadline — a
        reservation expiring early in the window leaves the remainder
        free for the job being priced.  Each job's seconds are derived
        once and folded onto its nodes.
        """
        self._sync_progress()
        n = self._n
        until = self._deadline[:n] - self.sim.now
        np.copyto(until, window, where=window < until)  # min(until, window)
        np.copyto(until, 0.0, where=~(until > 0.0))  # max(0.0, until)
        held = self._fold(np.multiply(self._committed_share[:n], until, out=until))
        return held[list(nodes)].tolist()

    def _required_rates(self) -> np.ndarray:
        """Every job's required rate now: estimated remaining work over the
        time left to its deadline, capped at 1 (1 once the deadline has
        passed)."""
        n = self._n
        est = self._estimate[:n] - self._consumed[:n]
        # max(est, 0.0) and min(rate, 1.0): neither operand can be -0.0,
        # so no signed zero can tell them from np.maximum/np.minimum.
        np.maximum(est, 0.0, out=est)
        window = self._deadline[:n] - self.sim.now
        if n and window[window.argmin()] > 0.0:
            rates = np.divide(est, window, out=est)
        else:
            rates = np.ones(n)
            np.divide(est, window, out=rates, where=window > 0.0)
        return np.minimum(rates, 1.0, out=rates)

    def _risky_nodes(self) -> np.ndarray:
        """Mask of the nodes holding a job past its estimate."""
        n = self._n
        past = self._consumed[:n] >= self._estimate[:n] - WORK_EPS
        past &= self._remaining[:n] > WORK_EPS
        mask = np.zeros(len(self.node_jobs), dtype=bool)
        inc = self._n_inc
        mask[self._nodes[:inc][past[self._owner[:inc]]]] = True
        return mask

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
        if (self._down or self._retired) and self._unavail[list(nodes)].any():
            raise ValueError(
                f"cannot admit job {job.job_id} on failed/retired node(s) "
                f"{sorted(node for node in nodes if self._unavail[node])}"
            )
        self._sync_progress()
        row = self._n
        k = len(nodes)
        if row == self._f.shape[1]:
            self._bind_rows(np.concatenate((self._f, np.zeros_like(self._f)), axis=1),
                            np.concatenate((self._start, np.zeros_like(self._start))))
        first = self._n_inc
        if first + k > len(self._nodes):
            spare = np.zeros(first + 2 * k, dtype=np.int64)
            self._nodes = np.concatenate((self._nodes[:first], spare))
            self._owner = np.concatenate((self._owner[:first], spare))
        state = TSJobState(job, tuple(nodes), float(share), self.sim.now, self, row, on_finish)
        self._f[:, row] = (0.0, job.runtime, 0.0, math.inf, -1.0, state.share,
                           job.estimate, state.absolute_deadline)
        self._start[row] = first
        self._nodes[first:first + k] = state.nodes
        self._owner[first:first + k] = row
        self._n_inc = first + k
        self._n = row + 1
        self._jobs.append(state)
        jid = job.job_id
        self._states[jid] = state
        node_jobs = self.node_jobs
        for node in nodes:
            node_jobs[node].add(jid)
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
        n = self._n
        done = self._rate[:n] * dt
        self._consumed[:n] += done
        left = self._remaining[:n]
        left -= done
        # max(left, 0.0): remaining work is never -0.0, so no signed zero
        # can tell the two apart.
        np.maximum(left, 0.0, out=left)
        self._last_update = now

    def _reschedule(self, touched_nodes: Collection[int]) -> None:
        """Re-rate jobs after the membership of ``touched_nodes`` changed,
        then re-arm the completion timer.

        Every node's share total is folded afresh first.  Static mode
        re-rates only the jobs on touched nodes: a static job's rate
        depends only on the share totals of its own nodes.  Dynamic mode
        re-rates every job, since required rates drift with the clock.
        Re-rated jobs draw fresh ticks in admission order, as
        the per-job completion events they stand for would have.

        A job's rate is ``min(1, share + min bonus over its nodes)``, and
        no more than ``share / total`` on an overcommitted node.
        ``fl(share + b)`` is monotone in ``b``, so adding the smallest
        bonus gives the same float as the minimum of the per-node sums.
        Each minimum is one segment of a ``reduceat`` over the flat
        incidence array.
        """
        if PERF.enabled:
            PERF.incr("cluster.time.reschedules")
            PERF.observe("cluster.time.active_jobs", len(self._states))
        n = self._n
        inc = self._n_inc
        nodes = self._nodes[:inc]
        owner = self._owner[:inc]
        if self.mode is ShareMode.STATIC:
            share = self._committed_share[:n]
            hit = np.zeros(len(self.node_jobs), dtype=bool)
            hit[list(touched_nodes)] = True
            rerate = np.zeros(n, dtype=bool)
            rerate[owner[hit[nodes]]] = True
            rerate = rerate.nonzero()[0]
            ordered = False
        else:
            share = np.maximum(self._required_rates(), MIN_DYNAMIC_SHARE)  # never -0.0
            rerate = slice(0, n)
            # Every job is re-rated in admission order, so ticks rise with
            # the column and the first smallest ETA is the head.
            ordered = True
        self._refresh_totals(share)
        if n:
            starts = self._start[:n]
            rate = share + np.minimum.reduceat(self._bonus[nodes], starts)
            np.minimum(rate, 1.0, out=rate)  # rate >= share > 0: no signed zeros
            if np.count_nonzero(self._over):
                caps = share[owner] / self._total[nodes]
                np.copyto(caps, math.inf, where=~self._over[nodes])
                caps = np.minimum.reduceat(caps, starts)
                np.copyto(rate, caps, where=caps < rate)
            rate = rate[rerate]
            if rate.size:
                if rate[rate.argmin()] <= 0.0:  # pragma: no cover - MIN_DYNAMIC_SHARE forbids
                    raise RuntimeError("a time-shared job starved (rate 0)")
                self._rate[rerate] = rate
                self._eta[rerate] = self.sim.now + self._remaining[rerate] / rate
                first = self.sim.reserve_seqs(rate.size)
                self._tick[rerate] = np.arange(first, first + rate.size)
        self._arm_timer(ordered)

    def _refresh_totals(self, shares: np.ndarray) -> None:
        """Fold ``shares`` (one per job column) into every node's share
        total, then derive each node's residual bonus and overcommit flag:
        ``max(1 - total, 0) / members``, or ``inf`` on an empty node or one
        whose total exceeds ``1 + SHARE_EPS``.

        Static shares only change on the touched nodes, whose totals alone
        move; dynamic shares drift with the clock, so every total does.
        """
        self._total = totals = self._fold(shares)
        over = np.greater(totals, 1.0 + SHARE_EPS, out=self._over)
        free = 1.0 - totals  # never -0.0
        np.maximum(free, 0.0, out=free)
        bonus = self._bonus
        bonus.fill(math.inf)
        count = np.bincount(self._nodes[:self._n_inc], minlength=len(self.node_jobs))
        np.divide(free, count, out=bonus, where=count > 0)
        bonus[over] = math.inf

    def _arm_timer(self, ordered: bool) -> None:
        """Point the completion timer at the smallest (eta, tick): the
        earliest ETA, and of equal ETAs the earliest tick — the first of
        them when ticks rise with the column (``ordered``)."""
        timer = self._timer
        n = self._n
        if not n:
            if timer is not None:
                timer.cancel()
                self._timer = None
            return
        eta = self._eta[:n]
        row = eta.argmin()
        ties = None if ordered else eta == eta[row]
        if ties is not None and np.count_nonzero(ties) > 1:
            ties = ties.nonzero()[0]
            row = ties[self._tick[ties].argmin()]
        tick = int(self._tick[row])
        if timer is not None:
            if timer.seq == tick:
                return
            timer.cancel()
        self._timer = self.sim.schedule_reserved(
            float(eta[row]), tick, self._complete, self._jobs[row],
            priority=Priority.COMPLETION,
        )

    def _release(self, state: TSJobState, finished: bool = False) -> None:
        """Drop a job from the books, free its share slots and close the
        gap its column leaves."""
        row = state._row
        state._freeze(finished)
        jid = state.job.job_id
        del self._states[jid]
        node_jobs = self.node_jobs
        for node in state.nodes:
            node_jobs[node].discard(jid)
        n = self._n - 1
        k = len(state.nodes)
        first = self._start[row].item()
        self._f[:, row:n] = self._f[:, row + 1:n + 1]
        np.subtract(self._start[row + 1:n + 1], k, out=self._start[row:n])
        inc = self._n_inc
        self._nodes[first:inc - k] = self._nodes[first + k:inc]
        np.subtract(self._owner[first + k:inc], 1, out=self._owner[first:inc - k])
        self._n_inc = inc - k
        self._n = n
        del self._jobs[row]
        for later in self._jobs[row:]:
            later._row -= 1

    def _complete(self, state: TSJobState) -> None:
        self._sync_progress()
        # Authoritative: every rate change moves the ETA, so snap the float
        # residual rather than rescheduling a sub-resolution eta.
        self._release(state, finished=True)
        if PERF.enabled:
            PERF.incr("cluster.time.jobs_completed")
        self._reschedule(state.nodes)
        state._on_finish(state.job, self.sim.now)

    # -- fault injection -----------------------------------------------------
    def enable_node_tracking(self) -> None:
        """No-op: the time-shared cluster always tracks per-node placement.

        Present so the fault injector can call one uniform method on any
        cluster type.
        """

    def fail_node(self, node_ids: Union[int, tuple[int, ...]]) -> list[tuple[Job, float]]:
        """Take one node, or a batch of them, down at once; kill every job
        with a share slot on any of them.

        Returns ``(job, progress)`` pairs, node by node and, on each node,
        by job id, where ``progress`` is the dedicated-CPU seconds of work
        the job had completed.  Shares the victims held on *other* nodes
        are released, and the surviving jobs' rates are recomputed once,
        over every node the batch touched.
        """
        if isinstance(node_ids, int):
            node_ids = (node_ids,)
        self._sync_progress()
        killed: list[tuple[Job, float]] = []
        touched: set[int] = set()
        for node_id in node_ids:
            self._check_node_id(node_id)
            if node_id in self._down:
                raise ValueError(f"node {node_id} is already down")
            self._down.add(node_id)
            self._unavail[node_id] = True
            for jid in sorted(self.node_jobs[node_id]):
                state = self._states[jid]
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
        self._unavail[node_id] = False

    def down_nodes(self) -> frozenset[int]:
        return frozenset(self._down)

    def _check_node_id(self, node_id: int) -> None:
        # Node ids are stable for life: the valid range is everything ever
        # created — retirement shrinks capacity, not the id space.
        if not 0 <= node_id < len(self.node_jobs):
            raise ValueError(f"no such node: {node_id}")
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")

    # -- elastic capacity -----------------------------------------------------
    def commission_node(self) -> int:
        """Add a node to the machine; returns its (fresh, stable) id."""
        node_id = len(self.node_jobs)
        self.node_jobs.append(set())
        self._total = np.append(self._total, 0.0)
        self._bonus = np.append(self._bonus, math.inf)
        self._over = np.append(self._over, False)
        self._unavail = np.append(self._unavail, False)
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
        """Processor share committed at admission, summed over every
        running job's nodes."""
        return math.fsum(self._committed_share[self._owner[:self._n_inc]].tolist())

    def utilization(self) -> float:
        """Fraction of total capacity currently committed."""
        return self.total_committed() / self.total_procs if self.total_procs else 0.0
