"""Conservative backfilling — the classic EASY counterpart baseline.

Where EASY reserves processors only for the *head* job, conservative
backfilling (Mu'alem & Feitelson, IEEE TPDS 12(6)) gives **every** queued
job a reservation on a free-processor timeline, in priority order; a job
starts exactly when its planned reservation time arrives.  No job can be
delayed by a lower-priority one, at the cost of fewer backfill
opportunities.

Not part of the paper's Table V — included as the standard baseline for the
backfilling-discipline ablation (``benchmarks/test_ablations.py``): it sits
between plain FCFS (no backfilling) and FCFS-BF (aggressive EASY).

The generous admission control and commodity budget check apply exactly as
in :class:`repro.policies.backfill.BackfillPolicy`, which also drops the
jobs that fail them before each plan.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.profile import Timeline
from repro.policies.fcfs_bf import FCFSBackfill


class ConservativeBackfill(FCFSBackfill):
    """FCFS-priority conservative backfilling."""

    name = "Cons-BF"

    def _dispatch(self, arrival: Optional[int] = None) -> None:
        """Plan all queued jobs on the availability timeline; start those
        whose planned reservation is *now* (infeasible jobs are dropped
        first, as in EASY).  ``arrival`` is not used: every dispatch
        replans the whole queue."""
        self._drop_infeasible()
        queue = self._queue
        now = self.sim.now
        while True:
            timeline = Timeline(now, self.cluster.free_procs, self.cluster.releases())
            up_capacity = self._up_capacity()
            for i, job in enumerate(queue):
                if job.procs > up_capacity:
                    # Failed nodes leave too little machine for this job
                    # until a repair: it gets no reservation, and nothing
                    # can delay a job that cannot start at all.
                    continue
                start = timeline.find_earliest(job.procs, job.estimate)
                if start <= now and self.cluster.can_fit(job.procs):
                    # The can_fit guard covers same-timestamp completions
                    # that the timeline already counts as released but whose
                    # events have not fired yet; dispatch re-runs when they do.
                    del queue[i]
                    del self._keys[i]
                    self._start(job)
                    break  # cluster state changed; rebuild the timeline
                timeline.reserve(start, job.procs, job.estimate)
            else:
                return
