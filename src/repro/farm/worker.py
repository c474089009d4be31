"""The farm worker agent: claim → execute → commit, forever.

A worker owns nothing but a private disk store
(``<farm>/workers/<id>/store``) and a worker id.  Each cycle it walks the
farm's incomplete jobs in deterministic order, claims the first unit
whose lease it can take (stealing expired leases on the way — see
:mod:`repro.farm.leases`), and executes the unit through the standard
:func:`~repro.experiments.pipeline.execute_plan` supervisor, inheriting
the whole PR-4 fault model for free: per-run wall-clock timeouts, bounded
retries with deterministic backoff, the simulation watchdog, failure
journaling, and the chaos hooks.  While a unit runs, a daemon heartbeat
thread renews the lease; a worker that dies mid-unit simply stops
heartbeating and the unit is stolen back after the lease expires.

Commit is two files: the run document lands in the worker's own store
(checkpointed by ``execute_plan`` itself), then a ``done/<digest>.json``
marker tells the coordinator the unit is resolved.  A unit whose retries
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

from repro.experiments import chaos
from repro.experiments.runstore import RunKey, RunStore, StoreError
from repro.farm import leases as leases_mod
from repro.farm.coordinator import Farm
from repro.farm.plan import FarmPlan, unit_from_document
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
        self._plans: dict[str, FarmPlan] = {}
        #: the most recent unit's heartbeat thread, re-joined on worker
        #: exit — a renew that outlives its unit's 1 s join budget must
        #: not still be touching the lease file while the caller tears
        #: the farm directory down.
        self._last_beat: Optional[threading.Thread] = None

    # -- claiming ------------------------------------------------------------
    def _plan(self, job_id: str) -> FarmPlan:
        plan = self._plans.get(job_id)
        if plan is None:
            plan = self.farm.load_plan(job_id)
            self._plans[job_id] = plan
        return plan

    def claim_next(self) -> Optional[ClaimedUnit]:
        """The first claimable unit across all incomplete jobs, or None.

        Deterministic scan order (job id, then digest) concentrates rival
        workers on the same frontier; the lease's ``O_EXCL`` acquire
        settles every tie with exactly one winner.
        """
        for job_id in self.farm.job_ids():
            if self.farm.result_path(job_id).exists():
                continue
            done_dir = self.farm.done_dir(job_id)
            failed_dir = self.farm.failed_dir(job_id)
            for unit_path in sorted(self.farm.units_dir(job_id).glob("*.json")):
                digest = unit_path.stem
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
                try:
                    unit, unit_digest = unit_from_document(
                        json.loads(unit_path.read_text())
                    )
                except (OSError, ValueError, StoreError):
                    # Unreadable unit file: drop the lease and move on —
                    # the coordinator's evidence, not ours to destroy.
                    leases_mod.release(lease_path, lease)
                    continue
                if unit_digest != digest:
                    leases_mod.release(lease_path, lease)
                    continue
                if PERF.enabled:
                    PERF.incr("farm.units_claimed")
                return ClaimedUnit(job_id, unit, digest, lease, lease_path)
        return None

    # -- executing -----------------------------------------------------------
    def _write_marker(self, directory: Path, digest: str, doc: dict) -> None:
        path = directory / f"{digest}.json"
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def run_unit(self, claimed: ClaimedUnit) -> bool:
        """Execute one claimed unit; True when it completed successfully.

        The chaos hook fires *after* the lease is taken and *before* the
        simulation starts — a chaos-killed worker therefore leaves
        exactly the orphaned lease the stealing protocol exists for.
        """
        from repro.experiments.pipeline import execute_plan

        chaos.maybe_crash(claimed.digest)
        plan = self._plan(claimed.job_id)
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
        if execution.failed:
            record = self.store.failure_for(claimed.digest)
            self._write_marker(
                self.farm.failed_dir(claimed.job_id), claimed.digest,
                {
                    "digest": claimed.digest,
                    "worker": self.worker_id,
                    "kind": record.kind if record else "failure",
                    "message": record.message if record else "retries exhausted",
                },
            )
            if PERF.enabled:
                PERF.incr("farm.units_failed")
            self.echo(f"unit {claimed.digest[:12]} failed (journaled)")
            ok = False
        else:
            self._write_marker(
                self.farm.done_dir(claimed.job_id), claimed.digest,
                {"digest": claimed.digest, "worker": self.worker_id},
            )
            if PERF.enabled:
                PERF.incr("farm.units_completed")
            ok = True
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
        job_ids = self.farm.job_ids()
        if not job_ids:
            return False
        return all(
            self.farm.result_path(job_id).exists()
            or self.farm.progress(job_id).complete
            for job_id in job_ids
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
