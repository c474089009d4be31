"""The farm control plane: directory layout, job lifecycle, store sync.

A *farm* is one shared directory (same box, NFS, or periodically
rsync-synchronised) that carries all coordination state as plain files::

    <farm>/
      spool/                     submitted plan files awaiting pickup
      jobs/<job_id>/
        job.json                 the FarmPlan (content-addressed job id)
        leases/<digest>.json     live claims (see repro.farm.leases)
        done/<digest>.json       completion markers {digest, worker}
        failed/<digest>.json     exhausted-retries markers
        result.json              assembled GridAnalysis (job complete)
      store/                     the merged, authoritative RunStore
      workers/<worker_id>/store/ each worker's private RunStore

A job is its plan: its units are the unique ``RunKey`` digests of
``job.json``, which each :class:`Farm` handle explodes once and caches.
:class:`Farm` never simulates: it turns spool files into jobs, counts
markers against the plan's units, and — once every unit is resolved —
*syncs* (merges every worker store into ``<farm>/store``) and
*assembles* with the standard
:func:`~repro.experiments.pipeline.assemble_grid`.  Because
assembly reads the same content-addressed store a serial grid would
have filled, a farmed grid is bit-identical to a serial one by
construction; a unit whose every attempt died permanently shows up as
exactly the journaled gap that ``--on-error degrade`` accounts for.
:class:`~repro.farm.service.FarmService` drives jobs to completion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.experiments.runstore import (
    MergeReport,
    RunKey,
    RunStore,
    StoreError,
    atomic_write_text,
)
from repro.farm.plan import FarmPlan, load_plan_text
from repro.perf.registry import PERF


class FarmError(RuntimeError):
    """Farm-level failures (unreadable jobs, timeouts, undriveable jobs)."""


def _document_text(doc: dict) -> str:
    """A plan file's text: indented JSON with sorted keys."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class JobProgress:
    """Marker-derived progress of one job."""

    job_id: str
    units: int
    done: int
    failed: int
    leased: int

    @property
    def outstanding(self) -> int:
        return self.units - self.done - self.failed

    @property
    def complete(self) -> bool:
        return self.units > 0 and self.outstanding == 0


class Farm:
    """Handle on one farm directory (layout + job lifecycle)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.spool_dir = self.root / "spool"
        self.jobs_dir = self.root / "jobs"
        self.workers_dir = self.root / "workers"
        self.store_dir = self.root / "store"
        for path in (self.spool_dir, self.jobs_dir, self.workers_dir):
            path.mkdir(parents=True, exist_ok=True)
        #: job id → (plan, unique units in digest order); ``job.json`` is
        #: write-once and content addressed, so a read never goes stale.
        self._jobs: dict[str, tuple[FarmPlan, list[tuple[RunKey, str]]]] = {}

    # -- paths ---------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def leases_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "leases"

    def done_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "done"

    def failed_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "failed"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def worker_store_dir(self, worker_id: str) -> Path:
        return self.workers_dir / worker_id / "store"

    def store(self) -> RunStore:
        """The farm's merged, authoritative store."""
        return RunStore(self.store_dir)

    # -- submission ----------------------------------------------------------
    def submit(self, plan: FarmPlan) -> Path:
        """Drop a plan into the spool (what ``repro grid --farm`` does).

        The spool file is named by the plan digest, so resubmitting the
        same plan is idempotent: it lands on the same name and, once
        picked up, on the same (resumable) job directory.
        """
        path = self.spool_dir / f"{plan.job_id}.json"
        atomic_write_text(path, _document_text(plan.to_dict()))
        if PERF.enabled:
            PERF.incr("farm.plans_submitted")
        return path

    def create_job(self, plan: FarmPlan) -> str:
        """Materialise a plan as a job directory; returns the job id.

        Idempotent: the job id is the plan digest and ``job.json`` is only
        written when absent, so units already carrying a done/failed
        marker stay resolved — re-creating a half-finished job resumes it.
        """
        job_id = plan.job_id
        job = self.job_dir(job_id)
        for sub in ("leases", "done", "failed"):
            (job / sub).mkdir(parents=True, exist_ok=True)
        plan_path = job / "job.json"
        if not plan_path.exists():
            atomic_write_text(plan_path, _document_text(plan.to_dict()))
        return job_id

    def accept_submissions(self) -> list[str]:
        """Turn every readable spool file into a job; returns new job ids.

        A malformed submission is renamed ``<name>.rejected`` (with the
        reason alongside) instead of wedging the service loop.  Several
        services racing on one spool are safe: job creation is idempotent
        and the losing unlink is ignored.
        """
        accepted = []
        for path in sorted(self.spool_dir.glob("*.json")):
            try:
                plan = load_plan_text(path.read_text())
            except (OSError, StoreError) as exc:
                try:
                    path.rename(path.with_suffix(".json.rejected"))
                    path.with_suffix(".json.rejected.reason").write_text(
                        f"{exc}\n"
                    )
                except OSError:
                    pass
                if PERF.enabled:
                    PERF.incr("farm.plans_rejected")
                continue
            accepted.append(self.create_job(plan))
            try:
                path.unlink()
            except OSError:
                pass
        return accepted

    # -- introspection -------------------------------------------------------
    def _job(self, job_id: str) -> tuple[FarmPlan, list[tuple[RunKey, str]]]:
        job = self._jobs.get(job_id)
        if job is None:
            path = self.job_dir(job_id) / "job.json"
            try:
                plan = load_plan_text(path.read_text())
            except (OSError, StoreError) as exc:
                raise FarmError(f"job {job_id} has no readable job.json: {exc}") from exc
            job = plan, sorted(plan.unique_units(), key=lambda unit: unit[1])
            self._jobs[job_id] = job
        return job

    def load_plan(self, job_id: str) -> FarmPlan:
        """The job's plan (raises :class:`FarmError` when unreadable)."""
        return self._job(job_id)[0]

    def units(self, job_id: str) -> list[tuple[RunKey, str]]:
        """The job's ``(unit, digest)`` pairs in digest (claim-scan) order."""
        return self._job(job_id)[1]

    def job_ids(self) -> list[str]:
        return sorted(
            p.name for p in self.jobs_dir.iterdir()
            if (p / "job.json").exists()
        )

    def pending_jobs(self) -> list[str]:
        """Jobs still to drive: no ``result.json`` yet and a readable plan.

        A job whose ``job.json`` cannot be read can never be claimed or
        assembled, so it is left out rather than allowed to stop a worker
        or the service.
        """
        pending = []
        for job_id in self.job_ids():
            if self.result_path(job_id).exists():
                continue
            try:
                self.units(job_id)
            except FarmError:
                continue
            pending.append(job_id)
        return pending

    def progress(self, job_id: str) -> JobProgress:
        """Marker counts against the plan's units (:class:`FarmError` when
        the plan is unreadable)."""
        def count(path: Path) -> int:
            try:
                return sum(1 for p in path.glob("*.json"))
            except OSError:
                return 0

        return JobProgress(
            job_id=job_id,
            units=len(self.units(job_id)),
            done=count(self.done_dir(job_id)),
            failed=count(self.failed_dir(job_id)),
            leased=count(self.leases_dir(job_id)),
        )

    def worker_ids(self) -> list[str]:
        try:
            return sorted(
                p.name for p in self.workers_dir.iterdir()
                if (p / "store").is_dir()
            )
        except OSError:
            return []

    # -- store sync ----------------------------------------------------------
    def sync(self) -> MergeReport:
        """Merge every worker store into the farm store.

        Safe to run at any time (merging is idempotent and never mutates
        the worker stores), so an operator can pull partial results out
        of a long-running farm, and rsync-ed worker stores from other
        boxes merge the same way.
        """
        store = self.store()
        report = MergeReport()
        for worker_id in self.worker_ids():
            report += store.merge_from(RunStore(self.worker_store_dir(worker_id)))
        if PERF.enabled:
            PERF.incr("farm.syncs")
        return report

    def assemble(self, job_id: str):
        """Sync worker stores and reduce the job to ``result.json``.

        The merged farm store is handed to the *standard*
        :func:`~repro.experiments.pipeline.assemble_grid`; with
        ``on_error="degrade"`` in the plan, permanently failed units
        become journaled gap cells, otherwise an incomplete store raises
        exactly as a local grid would.  Returns the ``GridAnalysis``.
        """
        from repro.experiments.pipeline import assemble_grid

        plan = self.load_plan(job_id)
        self.sync()
        grid = assemble_grid(
            self.store(),
            plan.policies,
            plan.model,
            plan.config,
            plan.set_name,
            plan.scenario_objects(),
            on_missing="degrade" if plan.on_error == "degrade" else "raise",
        )
        grid.save(self.result_path(job_id))
        if PERF.enabled:
            PERF.incr("farm.jobs_completed")
        return grid
