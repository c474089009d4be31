"""The farm control plane: directory layout, job lifecycle, store sync.

A *farm* is one shared directory (same box, NFS, or periodically
rsync-synchronised) that carries all coordination state as plain files::

    <farm>/
      spool/                     submitted plan files awaiting pickup
      jobs/<job_id>/
        job.json                 the FarmPlan (content-addressed job id)
        units/<digest>.json      one claimable work unit per unique run
        leases/<digest>.json     live claims (see repro.farm.leases)
        done/<digest>.json       completion markers {digest, worker}
        failed/<digest>.json     exhausted-retries markers
        result.json              assembled GridAnalysis (job complete)
      store/                     the merged, authoritative RunStore
      workers/<worker_id>/store/ each worker's private RunStore

The coordinator never simulates: it explodes plans into units, watches
done/failed markers, steals back expired leases each poll, and — once
every unit is resolved — *syncs* (merges every worker store into
``<farm>/store``) and *assembles* with the standard
:func:`~repro.experiments.pipeline.assemble_grid`.  Because
assembly reads the same content-addressed store a serial grid would
have filled, a farmed grid is bit-identical to a serial one by
construction; a unit whose every attempt died permanently shows up as
exactly the journaled gap that ``--on-error degrade`` accounts for.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.experiments.runstore import MergeReport, RunStore, StoreError, atomic_write_text
from repro.farm import leases as leases_mod
from repro.farm.plan import FarmPlan, load_plan_text, unit_document
from repro.perf.registry import PERF


class FarmError(RuntimeError):
    """Farm-level failures (bad layout, timeouts, undriveable jobs)."""


def _document_text(doc: dict) -> str:
    """A plan or unit file's text: indented JSON with sorted keys."""
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

    # -- paths ---------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def units_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "units"

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
        """Materialise a plan as a job directory full of work units.

        Idempotent: the job id is the plan digest, unit files are only
        written when absent, and units already carrying a done/failed
        marker are left alone — re-creating a half-finished job resumes
        it.  Returns the job id.
        """
        job_id = plan.job_id
        job = self.job_dir(job_id)
        for sub in ("units", "leases", "done", "failed"):
            (job / sub).mkdir(parents=True, exist_ok=True)
        plan_path = job / "job.json"
        if not plan_path.exists():
            atomic_write_text(plan_path, _document_text(plan.to_dict()))
        created = 0
        for unit, digest in plan.unique_units():
            unit_path = self.units_dir(job_id) / f"{digest}.json"
            if unit_path.exists():
                continue
            atomic_write_text(unit_path, _document_text(unit_document(unit, digest)))
            created += 1
        if PERF.enabled:
            PERF.incr("farm.units_created", created)
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
    def load_plan(self, job_id: str) -> FarmPlan:
        path = self.job_dir(job_id) / "job.json"
        try:
            return load_plan_text(path.read_text())
        except OSError as exc:
            raise FarmError(f"job {job_id} has no readable job.json: {exc}") from exc

    def job_ids(self) -> list[str]:
        return sorted(
            p.name for p in self.jobs_dir.iterdir()
            if (p / "job.json").exists()
        )

    def progress(self, job_id: str) -> JobProgress:
        def count(path: Path) -> int:
            try:
                return sum(1 for p in path.glob("*.json"))
            except OSError:
                return 0

        return JobProgress(
            job_id=job_id,
            units=count(self.units_dir(job_id)),
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


class Coordinator:
    """Drives submitted jobs to completion over a :class:`Farm`.

    ``clock``/``sleep`` are injectable for the unit tests; real services
    run wall-clock.
    """

    def __init__(
        self,
        farm: Farm,
        poll_interval: float = 0.5,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.farm = farm
        self.poll_interval = poll_interval
        self.clock = clock
        self.sleep = sleep

    def reap(self, job_id: str) -> int:
        """Steal back expired leases so stalled units become claimable."""
        return leases_mod.reap_expired(self.farm.leases_dir(job_id), self.clock)

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        tick: Optional[Callable[[JobProgress], None]] = None,
    ) -> JobProgress:
        """Block until every unit of the job carries a done/failed marker.

        Each poll steals back expired leases first — the coordinator's
        work-stealing half — then re-reads the markers.  ``tick`` (if
        given) observes each poll's progress; ``timeout`` raises
        :class:`FarmError` rather than waiting forever on a farm with no
        live workers.
        """
        deadline = None if timeout is None else self.clock() + timeout
        while True:
            self.reap(job_id)
            progress = self.farm.progress(job_id)
            if tick is not None:
                tick(progress)
            if progress.units and progress.outstanding == 0:
                return progress
            if deadline is not None and self.clock() > deadline:
                raise FarmError(
                    f"job {job_id} still has {progress.outstanding} outstanding "
                    f"unit(s) after {timeout:g}s — are any workers running?"
                )
            self.sleep(self.poll_interval)

    def assemble(self, job_id: str):
        """Sync worker stores and reduce the job to a ``GridAnalysis``.

        The merged farm store is handed to the *standard*
        :func:`~repro.experiments.pipeline.assemble_grid`; with
        ``on_error="degrade"`` in the plan, permanently failed units
        become journaled gap cells, otherwise an incomplete store raises
        exactly as a local grid would.
        """
        from repro.experiments.pipeline import assemble_grid

        plan = self.farm.load_plan(job_id)
        self.farm.sync()
        store = self.farm.store()
        grid = assemble_grid(
            store,
            plan.policies,
            plan.model,
            plan.config,
            plan.set_name,
            plan.scenario_objects(),
            on_missing="degrade" if plan.on_error == "degrade" else "raise",
        )
        grid.save(self.farm.result_path(job_id))
        if PERF.enabled:
            PERF.incr("farm.jobs_completed")
        return grid

    def drive(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        tick: Optional[Callable[[JobProgress], None]] = None,
    ):
        """``wait`` + ``assemble``: one job, submission to ``result.json``."""
        self.wait(job_id, timeout=timeout, tick=tick)
        return self.assemble(job_id)
