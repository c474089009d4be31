"""``repro farm serve``: the loop that drives farm jobs to completion.

Each poll the service turns ``<farm>/spool/`` submissions (what
``repro grid --farm <dir>`` writes) into jobs, steals back expired
leases of every pending job, and — when a job's last unit resolves —
has :meth:`~repro.farm.coordinator.Farm.assemble` sync the worker stores
and write ``result.json``.  Execution itself belongs to the
``repro farm worker`` fleet; with ``self_execute=True`` the service
additionally drains claimable units in-process between polls, so a
single ``repro farm serve --self-execute`` is a complete one-box farm
(and the degraded mode a service falls back to when its fleet
disappears entirely).  A job whose ``job.json`` cannot be read is
skipped, never fatal.

The loop is crash-tolerant by the same argument as everything else here:
all state is marker files and content-addressed stores, so a service
that dies is replaced by starting another one — it re-accepts nothing
(the spool file is gone), re-creates nothing (job creation is
idempotent), and re-assembles only jobs without a ``result.json``.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.farm import leases
from repro.farm.coordinator import Farm, FarmError
from repro.farm.worker import WorkerAgent
from repro.perf.registry import PERF


class FarmService:
    """Spool watcher + job-driving loop (one instance per farm is typical).

    ``clock``/``sleep`` are injectable for the unit tests; real services
    run wall-clock.
    """

    def __init__(
        self,
        farm: Farm,
        poll_interval: float = 1.0,
        self_execute: bool = False,
        worker_id: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        echo: Callable[[str], None] = lambda line: None,
    ) -> None:
        self.farm = farm
        self.poll_interval = poll_interval
        self.clock = clock
        self.sleep = sleep
        self.echo = echo
        self.worker: Optional[WorkerAgent] = None
        if self_execute:
            self.worker = WorkerAgent(
                farm, worker_id=worker_id, clock=clock, sleep=sleep
            )

    def poll_once(self) -> List[str]:
        """One service cycle; returns the job ids completed this cycle."""
        accepted = self.farm.accept_submissions()
        for job_id in accepted:
            self.echo(f"accepted job {job_id} "
                      f"({self.farm.progress(job_id).units} units)")
        completed: List[str] = []
        for job_id in self.farm.pending_jobs():
            # Work stealing's other half: expired leases return to the
            # claimable pool even while every live worker is busy.
            reaped = leases.reap_expired(self.farm.leases_dir(job_id), self.clock)
            if reaped:
                self.echo(f"job {job_id}: stole back {reaped} expired lease(s)")
            if self.worker is not None:
                self.worker.run(drain=True)
            progress = self.farm.progress(job_id)
            if progress.complete:
                grid = self.farm.assemble(job_id)
                completed.append(job_id)
                state = (
                    f"degraded ({len(grid.gaps)} gaps)" if grid.degraded
                    else "complete"
                )
                self.echo(
                    f"job {job_id} {state}: {progress.done} done, "
                    f"{progress.failed} failed → "
                    f"{self.farm.result_path(job_id)}"
                )
        if PERF.enabled:
            PERF.incr("farm.service_polls")
        return completed

    def serve(
        self,
        max_jobs: Optional[int] = None,
        exit_when_idle: bool = False,
        timeout: Optional[float] = None,
    ) -> List[str]:
        """Run the service loop; returns every job id completed.

        ``max_jobs`` exits after that many completions (CI smoke drives
        exactly one job); ``exit_when_idle`` exits once neither spool
        files nor pending jobs remain; ``timeout`` bounds the whole
        call with a :class:`FarmError`.  With none of the three the loop
        runs until interrupted — the long-running service.
        """
        completed: List[str] = []
        deadline = None if timeout is None else self.clock() + timeout
        while True:
            completed.extend(self.poll_once())
            if max_jobs is not None and len(completed) >= max_jobs:
                return completed
            if exit_when_idle:
                idle = (
                    not self.farm.pending_jobs()
                    and not any(self.farm.spool_dir.glob("*.json"))
                )
                if idle:
                    return completed
            if deadline is not None and self.clock() > deadline:
                raise FarmError(
                    f"service timed out after {timeout:g}s with "
                    f"{len(self.farm.pending_jobs())} pending job(s) — "
                    f"are any workers running?"
                )
            self.sleep(self.poll_interval)
