"""``repro.farm`` — a work-stealing grid farm over shared directories.

The distributed-resource-management layer of the reproduction: any
number of worker processes (same box, or boxes sharing / rsync-ing a
farm directory) execute a grid's content-addressed work units under
lease-based mutual exclusion, their private run stores merge into one
authoritative store, and the standard assembly reduces it — so a farmed
grid is bit-identical to a serial ``repro grid`` by construction.

Entry points:

- :class:`Farm` / :class:`Coordinator` — layout, submission, lease
  reaping, sync, assembly (``repro farm sync``, ``repro farm status``);
- :class:`WorkerAgent` — the claim→execute→commit loop
  (``repro farm worker``);
- :class:`FarmService` — the spool-watching long-running mode
  (``repro farm serve``; submit with ``repro grid --farm <dir>``);
- :class:`FarmPlan` — the serialisable job description.

See ``docs/farm.md`` for the protocol and its failure semantics.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.farm.coordinator import Coordinator, Farm, FarmError, JobProgress
    from repro.farm.leases import DEFAULT_LEASE_S, Lease
    from repro.farm.plan import FarmPlan, plan_from_args
    from repro.farm.service import FarmService
    from repro.farm.worker import WorkerAgent, default_worker_id

__all__ = [
    "Coordinator",
    "Farm",
    "FarmError",
    "FarmPlan",
    "FarmService",
    "JobProgress",
    "Lease",
    "DEFAULT_LEASE_S",
    "WorkerAgent",
    "default_worker_id",
    "plan_from_args",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.farm.coordinator": ("Coordinator", "Farm", "FarmError", "JobProgress"),
    "repro.farm.leases": ("DEFAULT_LEASE_S", "Lease"),
    "repro.farm.plan": ("FarmPlan", "plan_from_args"),
    "repro.farm.service": ("FarmService",),
    "repro.farm.worker": ("WorkerAgent", "default_worker_id"),
})
