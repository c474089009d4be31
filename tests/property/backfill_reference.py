"""Reference dispatchers of the queue-based policies, for checking the fast path.

:class:`ReferenceDispatch` is the EASY dispatcher as it was before the
queue was kept sorted, flat quotes were cached and lapsed jobs were popped
by deadline: every pass re-sorts the queue, applies the generous admission
control (with a fresh budget quote) to each job it examines, and starts
over after every start or rejection.  :class:`ReferenceConservative` is the
matching conservative-backfilling loop.  Both keep their queue as a plain
list of jobs and share nothing with the fast path but the policy's
``priority_key``, ``_drop`` and the cluster.  They rebuild the running
jobs' releases from the cluster's records at every dispatch, as the
cluster once did, and EASY's window comes from the sort-based reference in
:mod:`profile_reference`, not from the cluster's sorted release list.

:func:`reference_policy` mixes either into a registered policy class, so
the two implementations run the same priority order, prices and options.
"""

from __future__ import annotations

import math
from typing import Optional

from profile_reference import reference_easy_backfill_window

from repro.cluster.profile import Timeline, can_backfill
from repro.policies import POLICIES
from repro.policies.backfill import TIME_EPS
from repro.policies.conservative_bf import ConservativeBackfill
from repro.workload.job import Job


def rebuilt_releases(cluster) -> list[tuple[float, int]]:
    """``(start + estimate, procs)`` of every running job, in start
    order."""
    return [
        (r.start_time + r.job.estimate, r.job.procs)
        for r in sorted(cluster.running(), key=lambda r: r.start_time)
    ]


class ReferenceDispatch:
    """Mixin: the EASY dispatcher that re-examines the whole queue."""

    def submit(self, job: Job) -> None:
        self._require_bound()
        self._queue.append(job)
        self._dispatch()

    def _recover_failed_job(self, job: Job) -> None:
        self._queue.append(job)

    def queued_jobs(self) -> list[Job]:
        return sorted(self._queue, key=self.priority_key)

    def _rejection_reason(self, job: Job) -> Optional[str]:
        if self.admission_control:
            now = self.sim.now
            if now > job.absolute_deadline + TIME_EPS:
                return "deadline lapsed while queued"
            if now + job.estimate > job.absolute_deadline + TIME_EPS:
                return "runtime estimate predicts deadline miss"
        admissible, _ = self._budget_ok(job)
        if not admissible:
            return "expected cost exceeds budget"
        return None

    def _start(self, job: Job) -> None:
        _, cost = self._budget_ok(job)
        if not (self.fault_config is not None and self._is_interrupted(job)):
            self.service.notify_accepted(job, quoted_cost=cost)
        self.service.notify_started(job)
        max_runtime = job.estimate if self.kill_at_estimate else None
        self.cluster.start(job, self._on_finish, max_runtime=max_runtime)

    def _dispatch(self) -> None:
        while True:
            self._queue.sort(key=self.priority_key)

            # Phase 1: pop rejected/startable jobs off the head.
            advanced = False
            while self._queue:
                head = self._queue[0]
                reason = self._rejection_reason(head)
                if reason is not None:
                    self._queue.pop(0)
                    self._drop(head, reason)
                    advanced = True
                    continue
                if self.cluster.can_fit(head.procs):
                    self._queue.pop(0)
                    self._start(head)
                    advanced = True
                    continue
                break
            if advanced:
                continue
            if not self._queue or not self.backfilling:
                return

            # Phase 2: backfill around the (blocked) head job.
            head = self._queue[0]
            up_capacity = self.cluster.total_procs
            if self.fault_config is not None:
                up_capacity -= len(self.cluster.down_nodes())
            if head.procs > up_capacity:
                shadow, spare = math.inf, self.cluster.free_procs
            else:
                shadow, spare = reference_easy_backfill_window(
                    self.sim.now,
                    self.cluster.free_procs,
                    rebuilt_releases(self.cluster),
                    head.procs,
                    self.cluster.total_procs,
                )
            for job in list(self._queue[1:]):
                reason = self._rejection_reason(job)
                if reason is not None:
                    self._queue.remove(job)
                    self._drop(job, reason)
                    advanced = True
                    break
                if can_backfill(
                    self.sim.now,
                    self.cluster.free_procs,
                    job.procs,
                    job.estimate,
                    shadow,
                    spare,
                ):
                    self._queue.remove(job)
                    self._start(job)
                    advanced = True
                    break
            if not advanced:
                return


class ReferenceConservative(ReferenceDispatch):
    """Mixin: conservative backfilling that replans after every decision."""

    def _dispatch(self) -> None:
        while True:
            self._queue.sort(key=self.priority_key)
            advanced = False
            timeline = Timeline(
                self.sim.now, self.cluster.free_procs, sorted(rebuilt_releases(self.cluster))
            )
            up_capacity = self.cluster.total_procs
            if self.fault_config is not None:
                up_capacity -= len(self.cluster.down_nodes())
            for job in list(self._queue):
                reason = self._rejection_reason(job)
                if reason is not None:
                    self._queue.remove(job)
                    self._drop(job, reason)
                    advanced = True
                    break
                if job.procs > up_capacity:
                    continue
                start = timeline.find_earliest(job.procs, job.estimate)
                if start <= self.sim.now and self.cluster.can_fit(job.procs):
                    self._queue.remove(job)
                    self._start(job)
                    advanced = True
                    break
                timeline.reserve(start, job.procs, job.estimate)
            if not advanced:
                return


def reference_policy(name: str, **kwargs):
    """The registered policy ``name`` running its reference dispatcher."""
    cls = POLICIES[name]
    mixin = (
        ReferenceConservative if issubclass(cls, ConservativeBackfill)
        else ReferenceDispatch
    )
    return type(f"Reference{cls.__name__}", (mixin, cls), {})(**kwargs)
