"""The farm worker agent: claim → execute → commit, forever.

A worker owns nothing but a private disk store
(``<farm>/workers/<id>/store``) and a worker id.  Each cycle it walks the
farm's pending jobs in deterministic order, explodes each job's plan into
its unique ``RunKey`` units (via the :class:`Farm` handle's plan cache),
claims the first unit whose lease it can take (stealing expired leases on
the way — see :mod:`repro.farm.leases`), and executes that one grid cell
through the standard
:func:`~repro.experiments.pipeline.execute_plan` supervisor, inheriting
the whole resilience layer for free: per-run wall-clock timeouts, bounded
retries with deterministic backoff, the simulation watchdog and failure
journaling.  While a unit runs, a daemon heartbeat thread renews the
lease; a worker that dies mid-unit simply stops heartbeating and the unit
is stolen back after the lease expires.

Commit is two files: the run document lands in the worker's own store
(checkpointed by ``execute_plan`` itself), then a ``done/<digest>.json``
marker tells the farm service the unit is resolved.  A unit whose retries
are exhausted gets a ``failed/<digest>.json`` marker instead — terminal
for this job, surfaced by degrade-mode assembly as a journaled gap.

Workers never talk to each other and never write shared state except
markers and their own lease files, so any number of them can share a
farm directory — or be killed at any instant — without coordination.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.runstore import RunKey, RunStore, atomic_write_text
from repro.farm import leases as leases_mod
from repro.farm.coordinator import Farm
from repro.perf.registry import PERF


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per process on a shared filesystem."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class ClaimedUnit:
    """One unit this worker holds the lease for."""

    job_id: str
    unit: RunKey
    digest: str
    lease: leases_mod.Lease
    lease_path: Path


class WorkerAgent:
    """One ``repro farm worker`` process (or an in-process drain loop)."""

    def __init__(
        self,
        farm: Farm,
        worker_id: Optional[str] = None,
        lease_duration: float = leases_mod.DEFAULT_LEASE_S,
        poll_interval: float = 0.5,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        echo: Callable[[str], None] = lambda line: None,
    ) -> None:
        self.farm = farm
        self.worker_id = worker_id or default_worker_id()
        self.lease_duration = lease_duration
        self.poll_interval = poll_interval
        self.clock = clock
        self.sleep = sleep
        self.echo = echo
        self.store = RunStore(farm.worker_store_dir(self.worker_id))
        #: the most recent unit's heartbeat thread, re-joined on worker
        #: exit — a renew that outlives its unit's 1 s join budget must
        #: not still be touching the lease file while the caller tears
        #: the farm directory down.
        self._last_beat: Optional[threading.Thread] = None

    # -- claiming ------------------------------------------------------------
    def claim_next(self) -> Optional[ClaimedUnit]:
        """The first claimable unit across all pending jobs, or None.

        Deterministic scan order (job id, then digest) concentrates rival
        workers on the same frontier; the lease's ``O_EXCL`` acquire
        settles every tie with exactly one winner.  A job whose plan
        cannot be read is never pending, so it never takes a lease.
        """
        for job_id in self.farm.pending_jobs():
            done_dir = self.farm.done_dir(job_id)
            failed_dir = self.farm.failed_dir(job_id)
            for unit, digest in self.farm.units(job_id):
                if (done_dir / f"{digest}.json").exists():
                    continue
                if (failed_dir / f"{digest}.json").exists():
                    continue
                lease_path = self.farm.leases_dir(job_id) / f"{digest}.json"
                lease = leases_mod.acquire(
                    lease_path, digest, self.worker_id,
                    duration=self.lease_duration, clock=self.clock,
                )
                if lease is None:
                    continue
                if PERF.enabled:
                    PERF.incr("farm.units_claimed")
                return ClaimedUnit(job_id, unit, digest, lease, lease_path)
        return None

    # -- executing -----------------------------------------------------------
    def run_unit(self, claimed: ClaimedUnit) -> bool:
        """Execute one claimed unit; True when it completed successfully."""
        from repro.experiments.pipeline import execute_plan

        plan = self.farm.load_plan(claimed.job_id)
        stop = threading.Event()

        def heartbeat() -> None:
            lease = claimed.lease
            interval = max(self.lease_duration / 3.0, 0.05)
            while not stop.wait(interval):
                renewed = leases_mod.renew(
                    claimed.lease_path, lease,
                    duration=self.lease_duration, clock=self.clock,
                )
                if renewed is None:
                    return  # lease lost; finish the run, purity covers us
                lease = renewed

        beat = threading.Thread(target=heartbeat, daemon=True)
        self._last_beat = beat
        beat.start()
        try:
            execution = execute_plan(
                [claimed.unit], self.store, execution=plan.execution_policy()
            )
        finally:
            stop.set()
            beat.join(timeout=1.0)
        ok = not execution.failed
        marker = {"digest": claimed.digest, "worker": self.worker_id}
        if not ok:
            record = self.store.failure_for(claimed.digest)
            marker["kind"] = record.kind if record else "failure"
            marker["message"] = record.message if record else "retries exhausted"
        directory = (self.farm.done_dir if ok else self.farm.failed_dir)(claimed.job_id)
        atomic_write_text(
            directory / f"{claimed.digest}.json",
            json.dumps(marker, indent=1, sort_keys=True) + "\n",
        )
        if PERF.enabled:
            PERF.incr("farm.units_completed" if ok else "farm.units_failed")
        if not ok:
            self.echo(f"unit {claimed.digest[:12]} failed (journaled)")
        leases_mod.release(claimed.lease_path, claimed.lease)
        return ok

    def _join_heartbeat(self, timeout: float = 5.0) -> None:
        """Wait out the last unit's heartbeat thread (bounded).

        ``run_unit`` already joins with a 1 s budget; a renew slowed past
        that (loaded CI filesystem) leaves a daemon thread that could
        still be rewriting its lease file while the caller deletes the
        farm spool.  Worker exit is the last safe point to wait, so the
        loop re-joins here with a longer budget.
        """
        beat = self._last_beat
        if beat is not None and beat.is_alive():
            beat.join(timeout=timeout)
        self._last_beat = None

    # -- the loop ------------------------------------------------------------
    def _all_jobs_done(self) -> bool:
        if not self.farm.job_ids():
            return False
        return all(
            self.farm.progress(job_id).complete
            for job_id in self.farm.pending_jobs()
        )

    def run(
        self,
        max_units: Optional[int] = None,
        exit_when_done: bool = False,
        drain: bool = False,
        max_idle_s: Optional[float] = None,
    ) -> int:
        """Claim-and-execute until an exit condition; returns units run.

        ``drain``
            Exit as soon as nothing is claimable (in-process callers:
            the service's self-execute mode, the farm-overhead smoke).
        ``exit_when_done``
            Exit once at least one job exists and every job is resolved
            — the long-poll mode a fleet worker runs under.  While units
            are merely *leased* elsewhere it keeps polling, so it can
            steal them if their owner dies.
        ``max_units`` / ``max_idle_s``
            Hard stops for tests and bounded shifts.
        """
        executed = 0
        idle_since: Optional[float] = None
        try:
            while True:
                if max_units is not None and executed >= max_units:
                    return executed
                claimed = self.claim_next()
                if claimed is not None:
                    idle_since = None
                    self.run_unit(claimed)
                    executed += 1
                    continue
                if drain:
                    return executed
                if exit_when_done and self._all_jobs_done():
                    return executed
                now = self.clock()
                if idle_since is None:
                    idle_since = now
                if max_idle_s is not None and now - idle_since > max_idle_s:
                    return executed
                self.sleep(self.poll_interval)
        finally:
            self._join_heartbeat()
