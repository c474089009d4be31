"""Space-shared cluster: one job per processor at a time.

Used by the backfilling policies and FirstReward.  The cluster tracks free
processors and running jobs; jobs run for their *actual* runtime (the
scheduler only ever sees estimates), and a completion callback hands control
back to the owning policy.

The machine is the paper's SDSC SP2, whose nodes are identical (each of
SPEC rating 168), so a job runs for its trace runtime on whichever nodes
it gets.

Per-node bookkeeping, which the fault injector switches on, is a free
list of node ids kept in id order, and a node-to-job map that finds the
job holding a failed node without scanning the running jobs.

Every machine, tracked or not, keeps the ``(estimated finish, procs)``
release of each running job in one sorted list: the finish is struck once,
when the job starts, and the pair leaves the list when the job completes
or is killed, so EASY backfilling reads its profile without rebuilding or
sorting it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.cluster.profile import Release
from repro.perf.registry import PERF
from repro.sim.engine import Simulator
from repro.sim.events import EventHandle, Priority
from repro.workload.job import Job

#: read once per started job (a module global is cheaper than an enum member).
_COMPLETION = Priority.COMPLETION


@dataclass(slots=True)
class RunningJob:
    """Book-keeping for one executing job."""

    job: Job
    start_time: float
    #: node ids held by the job (clusters that track nodes only).
    nodes: tuple[int, ...] = ()
    #: finish time the scheduler believes in (start + estimate); set by
    #: :meth:`SpaceSharedCluster.start`.
    estimated_finish: float = 0.0
    completion: Optional[EventHandle] = field(repr=False, default=None)


class SpaceSharedCluster:
    """A space-shared machine of ``total_procs`` identical nodes.

    Parameters
    ----------
    sim:
        The driving simulator.
    total_procs:
        Machine size (the paper's SDSC SP2: 128).
    """

    def __init__(self, sim: Simulator, total_procs: int = 128) -> None:
        self.sim = sim
        if total_procs < 1:
            raise ValueError("cluster needs at least one processor")
        self.total_procs = int(total_procs)
        self.free_procs = self.total_procs
        #: node ids ever created: ids are ``0 .. _node_count - 1``.
        self._node_count = self.total_procs
        self._running: dict[int, RunningJob] = {}
        #: ``(estimated_finish, procs)`` of every running job, sorted.
        self._releases: list[Release] = []
        # The tracked pool; empty until tracking is on.
        #: free node ids, in id order.
        self._free_nodes: list[int] = []
        #: node id -> the running job holding it.
        self._node_job: dict[int, RunningJob] = {}
        #: nodes currently failed (fault injection); never free nor running.
        self._down: set[int] = set()
        #: nodes decommissioned for good (elastic capacity); ids are never
        #: reused, so every node keeps a stable identity.
        self._retired: set[int] = set()
        # Without faults no job needs to know which nodes it holds, so
        # per-node bookkeeping stays off; fault injection needs to know
        # which job holds which node, so the injector switches tracking on.
        self._track_nodes = False

    # ------------------------------------------------------------------
    def can_fit(self, procs: int) -> bool:
        return procs <= self.free_procs

    def _allocate_nodes(self, record: RunningJob) -> None:
        """Tracked path: give ``record`` the lowest-numbered free nodes."""
        procs = record.job.procs
        chosen = self._free_nodes[:procs]
        del self._free_nodes[:procs]
        record.nodes = tuple(chosen)
        self._node_job.update(dict.fromkeys(chosen, record))

    def _release_nodes(self, record: RunningJob, failed: Optional[int] = None) -> None:
        """Tracked path: ``record``'s nodes leave the node-to-job map and
        all but ``failed`` return to the free list.  They are in id order,
        so the sort merges two sorted runs."""
        node_job = self._node_job
        for node_id in record.nodes:
            del node_job[node_id]
        nodes = record.nodes
        if failed is not None:
            nodes = [i for i in nodes if i != failed]
        free = self._free_nodes
        free.extend(nodes)
        free.sort()

    def start(
        self,
        job: Job,
        on_finish: Callable[[Job, float], None],
        max_runtime: Optional[float] = None,
    ) -> RunningJob:
        """Begin executing ``job`` now; ``on_finish(job, finish_time)`` fires
        when the actual runtime elapses.

        ``max_runtime`` caps execution (seconds): real batch
        systems kill a job once its requested time is exhausted, so passing
        ``job.estimate`` models that discipline; the caller can detect a
        kill by ``job.runtime > max_runtime``.
        """
        if job.procs > self.free_procs:
            raise ValueError(
                f"job {job.job_id} needs {job.procs} processors, "
                f"only {self.free_procs} free"
            )
        if job.job_id in self._running:
            raise ValueError(f"job {job.job_id} is already running")
        if max_runtime is not None and max_runtime <= 0:
            raise ValueError("max_runtime must be positive")
        self.free_procs -= job.procs
        now = self.sim.now
        record = RunningJob(job=job, start_time=now)
        if self._track_nodes:
            self._allocate_nodes(record)
        record.estimated_finish = finish = now + job.estimate
        bisect.insort(self._releases, (finish, job.procs))
        duration = job.runtime if max_runtime is None else min(job.runtime, max_runtime)
        record.completion = self.sim.schedule(
            duration,
            self._complete,
            record,
            on_finish,
            priority=_COMPLETION,
        )
        self._running[job.job_id] = record
        if PERF.enabled:
            PERF.incr("cluster.space.jobs_started")
            PERF.observe("cluster.space.utilization_at_start", self.utilization())
        return record

    def _strike_release(self, record: RunningJob) -> None:
        """Remove ``record``'s release; equal pairs are interchangeable,
        so deleting the first of them is as good as deleting its own."""
        releases = self._releases
        del releases[bisect.bisect_left(releases, (record.estimated_finish, record.job.procs))]

    def _complete(self, record: RunningJob, on_finish) -> None:
        record.completion = None  # the fired handle refers back to the record
        del self._running[record.job.job_id]
        self._strike_release(record)
        self.free_procs += record.job.procs
        if self._track_nodes:
            self._release_nodes(record)
        assert self.free_procs <= self.total_procs
        if PERF.enabled:
            PERF.incr("cluster.space.jobs_completed")
        on_finish(record.job, self.sim.now)

    # -- fault injection ------------------------------------------------
    def enable_node_tracking(self) -> None:
        """Switch the cluster to per-node bookkeeping, every node free.

        The fault injector needs to know which job holds which node.  Must
        be called before any job starts (the injector calls it at t=0).
        """
        if self._track_nodes:
            return
        if self._running:
            raise RuntimeError("cannot enable node tracking with jobs running")
        self._track_nodes = True
        self._free_nodes = list(range(self._node_count))

    def fail_node(self, node_ids: Union[int, tuple[int, ...]]) -> list[tuple[Job, float]]:
        """Take one node, or a batch of them, down at once; return
        ``(job, progress)`` for the jobs killed, in node order.

        A failed node leaves the free pool until :meth:`repair_node`.  A job
        holding a failed node is terminated: its other nodes return to the
        free list and its completion event is cancelled.  ``progress`` is
        the seconds of work done at the instant of failure.
        """
        if not self._track_nodes:
            raise RuntimeError("fail_node requires node tracking (enable_node_tracking)")
        if isinstance(node_ids, int):
            node_ids = (node_ids,)
        killed: list[tuple[Job, float]] = []
        for node_id in node_ids:
            self._check_node_id(node_id)
            if node_id in self._down:
                raise ValueError(f"node {node_id} is already down")
            victim = self._node_job.get(node_id)
            if victim is None:
                try:
                    self._free_nodes.remove(node_id)
                except ValueError:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"node {node_id} is neither free nor held by a running job"
                    ) from None
                self._down.add(node_id)
                self.free_procs -= 1
                continue
            self._down.add(node_id)
            if victim.completion is not None:
                victim.completion.cancel()
                victim.completion = None
            del self._running[victim.job.job_id]
            self._strike_release(victim)
            self._release_nodes(victim, failed=node_id)
            # The failed node stays out of the pool; its procs slot is down too.
            self.free_procs += victim.job.procs - 1
            progress = min(max(self.sim.now - victim.start_time, 0.0), victim.job.runtime)
            killed.append((victim.job, progress))
        if PERF.enabled and killed:
            PERF.incr("cluster.space.jobs_failed", len(killed))
        return killed

    def repair_node(self, node_id: int) -> None:
        """Bring a failed node back into the free pool."""
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")
        if node_id not in self._down:
            raise ValueError(f"node {node_id} is not down")
        self._down.discard(node_id)
        bisect.insort(self._free_nodes, node_id)
        self.free_procs += 1

    def down_nodes(self) -> frozenset[int]:
        return frozenset(self._down)

    def down_count(self) -> int:
        """How many nodes are down now, without copying the set."""
        return len(self._down)

    def _check_node_id(self, node_id: int) -> None:
        # Node ids are stable for life, so the valid range is everything
        # ever created — retirement shrinks capacity, not the id space.
        if not 0 <= node_id < self._node_count:
            raise ValueError(f"no such node: {node_id}")
        if node_id in self._retired:
            raise ValueError(f"node {node_id} is decommissioned")

    # -- elastic capacity ----------------------------------------------------
    def commission_node(self) -> int:
        """Add a node to the machine; returns its (fresh, stable) id.

        Requires node tracking (the fault injector enables it), because a
        commissioned node must join the per-node free list.
        """
        if not self._track_nodes:
            raise RuntimeError(
                "commission_node requires node tracking (enable_node_tracking)"
            )
        node_id = self._node_count
        self._node_count += 1
        self.total_procs += 1
        self.free_procs += 1
        self._free_nodes.append(node_id)  # the highest id yet: order holds
        if PERF.enabled:
            PERF.incr("cluster.space.nodes_commissioned")
        return node_id

    def decommission_node(self, node_id: int) -> list[tuple[Job, float]]:
        """Retire ``node_id`` for good; returns the jobs it killed.

        Semantically a failure that never repairs: any job gang-scheduled
        on the node is terminated exactly as :meth:`fail_node` terminates
        it (so the caller routes the kills through the same recovery
        path), and the machine's capacity shrinks by one.
        """
        killed = self.fail_node(node_id)
        self._down.discard(node_id)
        self._retired.add(node_id)
        self.total_procs -= 1
        if PERF.enabled:
            PERF.incr("cluster.space.nodes_decommissioned")
        return killed

    # ------------------------------------------------------------------
    @property
    def used_procs(self) -> int:
        return self.total_procs - self.free_procs

    def running(self) -> list[RunningJob]:
        """Running jobs ordered by estimated finish (for the profile)."""
        return sorted(self._running.values(), key=lambda r: r.estimated_finish)

    def releases(self) -> list[Release]:
        """(estimated finish, procs) of every running job, in nondecreasing
        finish order, for the backfilling profile.

        This is the cluster's own list, kept up to date by every start,
        completion and kill: read it, do not modify or keep it.
        """
        return self._releases

    def is_running(self, job_id: int) -> bool:
        return job_id in self._running

    def utilization(self) -> float:
        """Instantaneous processor utilisation in [0, 1]."""
        return self.used_procs / self.total_procs
