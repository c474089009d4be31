"""``repro.farm`` — a work-stealing grid farm over shared directories.

The distributed-resource-management layer of the reproduction: any
number of worker processes (same box, or boxes sharing / rsync-ing a
farm directory) execute a grid's content-addressed work units under
lease-based mutual exclusion, their private run stores merge into one
authoritative store, and the standard assembly reduces it — so a farmed
grid is bit-identical to a serial ``repro grid`` by construction.

Entry points:

- :mod:`repro.farm.coordinator` — :class:`Farm`: layout, submission,
  the per-job plan cache, progress, sync, assembly (``repro farm sync``,
  ``repro farm status``);
- :mod:`repro.farm.worker` — :class:`WorkerAgent`, the
  claim→execute→commit loop (``repro farm worker``);
- :mod:`repro.farm.service` — :class:`FarmService`, the one loop that
  drives jobs: spool pickup, lease reaping, assembly (``repro farm
  serve``; submit with ``repro grid --farm <dir>``);
- :mod:`repro.farm.plan` — :class:`FarmPlan`, the serialisable job
  description and the only file that names a job's units;
- :mod:`repro.farm.leases` — the lease files behind mutual exclusion.

See ``docs/farm.md`` for the protocol and its failure semantics.
"""
