"""Content-addressed persistence of units of work.

Every simulation in the evaluation is a pure function of its inputs — the
workload is synthesised from the config's seed and the engine is
deterministic.  That makes each run *content addressable*.  A :class:`Unit`
is one such run: it knows its digest, how to execute itself, and how to
turn its result into a JSON document and back.  Two kinds exist:
:class:`RunKey`, one grid cell ``(ExperimentConfig, policy, economic
model)``, and :class:`~repro.experiments.marketsweep.MarketConfig`, one
market run.  Digests cover :data:`SCHEMA_VERSION`, so incompatible code
revisions never collide, and :class:`RunStore` keeps finished results
under them.

The store is two-layered:

- **L1** — a per-process dict (a store without a ``cache_dir`` is only
  this layer);
- **L2** — an optional on-disk cache directory of one JSON document per
  unit, written atomically (temp file + ``os.replace``) so a killed grid
  never leaves a truncated document behind, and loaded tolerantly (a
  corrupt or incompatible file is a miss, never a crash).

Layout of a cache directory::

    <cache_dir>/
      runs/<digest[:2]>/<digest>.json   one document per unit, every kind
      failures.jsonl               append-only failure journal (one JSON
                                   line per exhausted-retries failure)
      quarantine/<digest>.json     corrupt/foreign documents, moved
                                   aside for diagnosis instead of deleted

Because keys are content hashes, *resume is free*: rerunning any plan
against a populated cache dir only simulates the missing units.  Failed
units are first-class too: the supervisor journals them under the same
digest (:meth:`RunStore.record_failure`), and a later successful
:meth:`RunStore.record` of the digest resolves the failure — the journal
stays append-only, the document wins.  A corrupt or truncated document is
evidence of a crash: it is *quarantined* (moved into ``quarantine/``),
counted under ``runstore.quarantined``, and treated as a miss.

Stores on different machines (or different worker processes of a
:mod:`repro.farm` grid farm) converge through :meth:`RunStore.merge_from`:
the union of two stores is well defined *because* keys are content
hashes — identical digests with identical bytes dedupe, the same digest
with differing bytes is a contract violation and both sides are
quarantined as evidence, and failure journals concatenate so the latest
record per digest wins.  Each document describes itself (``key``,
``format``, and the labels and configuration of its unit), so the
document tree is the whole store.

The perf registry sees every store interaction under the ``runstore.*``
counters (``runstore.hits``, ``runstore.misses``, ``runstore.disk_hits``,
``runstore.bytes_written``, ``runstore.bytes_read``,
``runstore.corrupt_skipped``, ``runstore.quarantined``,
``runstore.failures_recorded``, ``runstore.merges`` and
``runstore.merge_*``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, NamedTuple, Optional, Protocol, Union

from repro.core.objectives import OBJECTIVES, Objective, ObjectiveSet
from repro.experiments.errors import FailureRecord
from repro.experiments.scenarios import ExperimentConfig
from repro.faults.config import FaultConfig
from repro.perf.registry import PERF

#: Version of the run-content schema hashed into every :class:`RunKey`.
#: Bump when a code change alters what a cached result means (workload
#: synthesis, objective measurement, policy semantics): old cache entries
#: then simply stop matching instead of being silently wrong.
#:
#: History: 2 — ``ExperimentConfig`` grew the nested ``faults`` block
#: (fault injection); grids cached under schema 1 predate dependability
#: semantics and must re-run.
#: 3 — ``FaultConfig`` grew the fault-domain subsystem (topology,
#: domain/site outage processes, cascades, elastic capacity); the extra
#: fields change every config's serialised form, so schema-2 entries miss
#: cleanly and re-run.
SCHEMA_VERSION = 3

#: Format marker / document version of one on-disk run document.
RUN_FORMAT = "repro-run"
RUN_VERSION = 1


class StoreError(ValueError):
    """Raised on malformed or incompatible stored documents."""


def config_to_dict(config: ExperimentConfig) -> dict:
    """A JSON-ready, field-complete view of an experiment configuration.

    The nested ``faults`` block serialises through
    :meth:`repro.faults.config.FaultConfig.to_dict` so the whole document
    stays plain JSON (the scripted schedule becomes lists of lists).
    """
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        doc[f.name] = value.to_dict() if f.name == "faults" else value
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Rebuild a configuration from :func:`config_to_dict` output."""
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise StoreError(f"unknown ExperimentConfig fields: {sorted(unknown)}")
    kwargs = dict(doc)
    if "faults" in kwargs:
        try:
            kwargs["faults"] = FaultConfig.from_dict(kwargs["faults"])
        except (TypeError, ValueError) as exc:
            raise StoreError(f"malformed faults block: {exc}") from exc
    return ExperimentConfig(**kwargs)


def objectives_to_dict(objectives: ObjectiveSet) -> dict:
    """Exact JSON representation of the four raw objective values."""
    return {obj.value: objectives.value(obj) for obj in OBJECTIVES}


def objectives_from_dict(doc: dict) -> ObjectiveSet:
    """Inverse of :func:`objectives_to_dict` (bit-exact: JSON round-trips
    Python floats losslessly)."""
    try:
        return ObjectiveSet(
            wait=float(doc[Objective.WAIT.value]),
            sla=float(doc[Objective.SLA.value]),
            reliability=float(doc[Objective.RELIABILITY.value]),
            profitability=float(doc[Objective.PROFITABILITY.value]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed objectives block: {exc}") from exc


class Unit(Protocol):
    """One content-addressed unit of work, as the pipeline and store see it.

    ``digest`` names the unit's document in every store; ``policy`` and
    ``model`` are the two labels a :class:`FailureRecord` journals.
    ``execute`` runs the unit under the simulation watchdog budgets and
    returns its result; ``document`` wraps a result into the stored JSON
    document (which carries ``key`` and ``format``) and ``load`` is its
    inverse, raising :class:`StoreError` on a foreign or malformed one.
    """

    digest: str
    policy: str
    model: str

    def execute(
        self, max_sim_events: Optional[int] = None, max_sim_time: Optional[float] = None
    ) -> Any: ...

    def document(self, result: Any) -> dict: ...

    def load(self, doc: dict) -> Any: ...


class RunKey(NamedTuple):
    """One grid cell: simulate ``policy`` on ``config`` under ``model``.

    A plain ``(config, policy, model)`` tuple by shape, so plans unpack
    and hash exactly as triples do.  The digest covers the full
    configuration, the policy name, the economic model, and
    :data:`SCHEMA_VERSION` — everything the result depends on.
    """

    config: ExperimentConfig
    policy: str
    model: str

    @property
    def digest(self) -> str:
        config = self.config
        # Equal configurations can serialise differently (``20 == 20.0``,
        # but JSON tells them apart), so the memo key carries every
        # field's type next to the key itself.
        return _run_digest(
            SCHEMA_VERSION,
            self,
            tuple(map(type, vars(config).values())),
            tuple(map(type, vars(config.faults).values())),
        )

    def execute(
        self, max_sim_events: Optional[int] = None, max_sim_time: Optional[float] = None
    ) -> ObjectiveSet:
        from repro.experiments.runner import run_single

        return run_single(
            self.config,
            self.policy,
            self.model,
            max_sim_events=max_sim_events,
            max_sim_time=max_sim_time,
        )

    def document(self, objectives: ObjectiveSet) -> dict:
        """The on-disk JSON document for this key's finished run."""
        return {
            "format": RUN_FORMAT,
            "version": RUN_VERSION,
            "schema": SCHEMA_VERSION,
            "key": self.digest,
            "policy": self.policy,
            "model": self.model,
            "config": config_to_dict(self.config),
            "objectives": objectives_to_dict(objectives),
        }

    def load(self, doc: dict) -> ObjectiveSet:
        return load_run_document(doc)


@functools.lru_cache(maxsize=4096)
def _run_digest(schema: int, key: RunKey, *field_types: tuple) -> str:
    """sha256 of ``key``'s canonical JSON under run-content ``schema``.

    Memoised: a grid reads each cell's digest several times (plan dedupe,
    store reads and writes, assembly) and the default configuration recurs
    in every scenario, while one derivation serialises and hashes the whole
    configuration.  ``field_types`` only widen the memo key.
    """
    payload = json.dumps(
        {
            "schema": schema,
            "config": config_to_dict(key.config),
            "policy": key.policy,
            "model": key.model,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_run_document(doc: dict) -> ObjectiveSet:
    """Validate one run document and extract its objectives.

    Raises :class:`StoreError` on any incompatibility; notably a document
    written by a *newer* code revision gets an explicit upgrade message.
    """
    if doc.get("format") != RUN_FORMAT:
        raise StoreError(f"not a {RUN_FORMAT} document: format={doc.get('format')!r}")
    version = doc.get("version")
    if version != RUN_VERSION:
        if isinstance(version, int) and version > RUN_VERSION:
            raise StoreError(
                f"run document version {version} is newer than this code "
                f"supports ({RUN_VERSION}); upgrade repro to read it"
            )
        raise StoreError(f"unsupported run document version {version!r}")
    return objectives_from_dict(doc.get("objectives", {}))


def atomic_write_text(path: Path, text: str) -> int:
    """Write ``text`` to ``path`` atomically; returns the byte count.

    The document lands under a temporary name in the same directory and is
    renamed into place, so concurrent readers (other shards, a resumed
    run) only ever see absent or complete files.
    """
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return len(data)


@dataclass(frozen=True)
class MergeReport:
    """What one :meth:`RunStore.merge_from` call did.

    ``conflicts`` counts digests whose bytes differed between the two
    stores — a violation of the content-addressing contract (runs are
    pure functions of their digest), so *both* documents are moved into
    quarantine and the cell becomes a re-runnable miss rather than
    silently trusting either side.
    """

    runs_copied: int = 0  #: documents new to the destination
    runs_deduped: int = 0  #: identical bytes already present (skipped)
    conflicts: int = 0  #: same digest, differing bytes (both quarantined)
    corrupt: int = 0  #: unreadable/invalid source documents (quarantined)
    failure_records: int = 0  #: journal lines appended

    def __add__(self, other: "MergeReport") -> "MergeReport":
        return MergeReport(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        return (
            f"{self.runs_copied} runs merged, {self.runs_deduped} deduped, "
            f"{self.conflicts} conflicts, {self.corrupt} corrupt, "
            f"{self.failure_records} failure records"
        )


class RunStore:
    """Two-layer (memory + optional disk) store of finished units.

    :meth:`lookup` and :meth:`record` take any :class:`Unit`;
    ``get``/``put`` are their grid spelling over ``(config, policy,
    model)``.  The ``hits``/``misses`` counters are **caller-managed**
    (:func:`~repro.experiments.pipeline.execute_plan` owns the logical
    access accounting, so serial and parallel grids report identical
    statistics).
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None) -> None:
        self._memory: dict[str, Any] = {}
        self._failures: dict[str, FailureRecord] = {}
        self.hits = 0
        self.misses = 0
        self.cache_dir: Optional[Path] = None
        if cache_dir is not None:
            self.cache_dir = Path(cache_dir).expanduser()
            (self.cache_dir / "runs").mkdir(parents=True, exist_ok=True)

    # -- addressing ----------------------------------------------------------
    def run_path(self, unit: Unit) -> Optional[Path]:
        """Where this unit's document lives on disk (None when memory-only)."""
        return self._path(unit.digest)

    def _path(self, digest: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / "runs" / digest[:2] / f"{digest}.json"

    # -- lookup --------------------------------------------------------------
    def lookup(self, unit: Unit) -> Any:
        """The stored result of ``unit``, or None.

        Disk entries are promoted into the memory layer on first touch.
        Never raises on bad disk state: a corrupt, truncated, or
        incompatible document is treated as a miss (and counted under
        ``runstore.corrupt_skipped``).
        """
        digest = unit.digest
        value = self._memory.get(digest)
        if value is not None:
            if PERF.enabled:
                PERF.incr("runstore.hits")
            return value
        value = self._load_disk(unit, digest)
        if value is not None:
            self._memory[digest] = value
            if PERF.enabled:
                PERF.incr("runstore.hits")
                PERF.incr("runstore.disk_hits")
            return value
        if PERF.enabled:
            PERF.incr("runstore.misses")
        return None

    def get(
        self, config: ExperimentConfig, policy: str, model: str
    ) -> Optional[ObjectiveSet]:
        """The stored result for one grid cell, or None."""
        return self.lookup(RunKey(config, policy, model))

    def _load_disk(self, unit: Unit, digest: str) -> Any:
        path = self._path(digest)
        if path is None:
            return None
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            doc = json.loads(text)
            if not isinstance(doc, dict) or doc.get("key") != digest:
                raise StoreError(f"document does not match its digest {digest}")
            value = unit.load(doc)
        except (StoreError, ValueError):
            # Truncated write, manual edit, or a foreign/newer document:
            # resume by re-simulating rather than failing the whole grid.
            # The bad bytes are evidence of a crash — move them aside for
            # diagnosis instead of silently overwriting on the next put.
            self._quarantine(path.name, path)
            if PERF.enabled:
                PERF.incr("runstore.corrupt_skipped")
            return None
        if PERF.enabled:
            PERF.incr("runstore.bytes_read", len(text.encode("utf-8")))
        return value

    def _quarantine(self, name: str, evidence: Union[Path, bytes]) -> None:
        """Keep corrupt or conflicting evidence under ``quarantine/<name>``.

        A path (this store's own document) is moved; bytes (read from
        another store, which may be a read-only rsync snapshot and is never
        mutated) are written.  Collisions (the same digest quarantined
        twice across crashes) get a numeric suffix so no evidence is ever
        overwritten.  Failure to move or write (e.g. the file vanished,
        permissions) degrades to the historical treat-as-miss behaviour.
        """
        assert self.cache_dir is not None
        qdir = self.cache_dir / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / name
            n = 0
            while target.exists():
                n += 1
                target = qdir / f"{name}.{n}"
            if isinstance(evidence, bytes):
                target.write_bytes(evidence)
            else:
                os.replace(evidence, target)
        except OSError:
            return
        if PERF.enabled:
            PERF.incr("runstore.quarantined")

    # -- storage -------------------------------------------------------------
    def record(self, unit: Unit, value: Any) -> None:
        """Record a finished unit (checkpointing it to disk when configured)."""
        doc = unit.document(value)
        digest = doc["key"]  # every document carries its own digest
        self._memory[digest] = value
        # A finished run resolves any journaled failure of the same unit.
        self._failures.pop(digest, None)
        path = self._path(digest)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        n_bytes = atomic_write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        if PERF.enabled:
            PERF.incr("runstore.bytes_written", n_bytes)
            PERF.incr("runstore.runs_persisted")

    def put(
        self,
        config: ExperimentConfig,
        policy: str,
        model: str,
        value: ObjectiveSet,
    ) -> None:
        """Record one finished grid cell."""
        self.record(RunKey(config, policy, model), value)

    # -- failure journal -----------------------------------------------------
    def record_failure(self, record: FailureRecord) -> None:
        """Journal a unit that exhausted its retries.

        The journal (``failures.jsonl``) is append-only and shares the
        documents' content addressing: the record's ``digest`` *is* the
        unit's digest, so resumes, degrade-mode
        assembly, and humans grepping the journal all name the same
        artefact.  Appends are atomic at the line level (a single
        ``write`` of one ``\\n``-terminated line).
        """
        self._failures[record.digest] = record
        if self.cache_dir is not None:
            line = json.dumps(record.to_dict(), sort_keys=True)
            with open(self.cache_dir / "failures.jsonl", "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        if PERF.enabled:
            PERF.incr("runstore.failures_recorded")

    def failures(self) -> dict[str, FailureRecord]:
        """Unresolved failures: latest journal record per digest.

        A digest whose document exists (in memory or on disk) is
        resolved — a retry or another shard eventually succeeded — and is
        excluded, so the journal being append-only never makes a healthy
        grid look degraded.  Malformed journal lines are skipped.
        """
        records = dict(self._failures)
        if self.cache_dir is not None:
            try:
                lines = (self.cache_dir / "failures.jsonl").read_text().splitlines()
            except OSError:
                lines = []
            for line in lines:
                try:
                    record = FailureRecord.from_dict(json.loads(line))
                except ValueError:
                    continue
                records[record.digest] = record
        resolved = self._memory.keys() | self.disk_digests()
        return {d: r for d, r in records.items() if d not in resolved}

    def failure_for(self, digest: str) -> Optional[FailureRecord]:
        """The unresolved failure journaled for one digest, if any."""
        return self.failures().get(digest)

    # -- merge / sync --------------------------------------------------------
    def _merge_runs(self, other: "RunStore") -> MergeReport:
        """Union ``other``'s document tree into this one."""
        assert self.cache_dir is not None and other.cache_dir is not None
        report = MergeReport()
        for src in sorted((other.cache_dir / "runs").glob("??/*.json")):
            digest = src.stem
            try:
                data = src.read_bytes()
            except OSError:
                report += MergeReport(corrupt=1)
                continue
            try:
                doc = json.loads(data.decode("utf-8"))
                if not isinstance(doc, dict) or doc.get("key") != digest:
                    raise StoreError(f"document does not match its digest {digest}")
                if not isinstance(doc.get("format"), str) or not doc["format"]:
                    raise StoreError("document without a 'format' marker")
            except (StoreError, ValueError, UnicodeDecodeError):
                # A corrupt source document is evidence of a crash on the
                # worker side: keep the bytes, skip the digest, carry on.
                self._quarantine(src.name, data)
                report += MergeReport(corrupt=1)
                continue
            dst = self._path(digest)
            if dst.exists():
                try:
                    ours = dst.read_bytes()
                except OSError:
                    ours = None
                if ours == data:
                    report += MergeReport(runs_deduped=1)
                    continue
                # Same digest, different bytes: the purity contract is
                # broken somewhere.  Trusting either side would silently
                # poison every later resume, so quarantine both and let
                # the unit re-run.
                self._quarantine(dst.name, dst)
                self._quarantine(src.name, data)
                self._memory.pop(digest, None)
                report += MergeReport(conflicts=1)
                continue
            dst.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(dst, data.decode("utf-8"))
            report += MergeReport(runs_copied=1)
        return report

    def merge_from(self, other: "RunStore") -> MergeReport:
        """Union another store's artefacts into this one.

        The two artefact families merge by their own disciplines:

        - ``runs/`` — content-addressed documents of every unit kind.  A
          digest new to this store is copied (atomically); identical bytes
          dedupe; *conflicting* bytes for the same digest quarantine both
          sides (see :class:`MergeReport`); a corrupt source document is
          quarantined and counted, never merged.
        - ``failures.jsonl`` — journals concatenate (this store's lines
          first, then the source's), so :meth:`failures`' latest-record-
          wins rule resolves overlapping digests in favour of the merged
          source, and a digest whose document arrived in the same merge
          is resolved outright.

        Both stores must be disk-backed.  Merging never mutates ``other``.
        """
        if self.cache_dir is None or other.cache_dir is None:
            raise StoreError("merge_from requires disk-backed stores on both sides")
        report = self._merge_runs(other)
        journal = other.cache_dir / "failures.jsonl"
        try:
            lines = journal.read_text().splitlines()
        except OSError:
            lines = []
        appended = 0
        for line in lines:
            try:
                record = FailureRecord.from_dict(json.loads(line))
            except ValueError:
                continue
            self.record_failure(record)
            appended += 1
        report += MergeReport(failure_records=appended)
        if PERF.enabled:
            PERF.incr("runstore.merges")
            PERF.incr("runstore.merge_runs_copied", report.runs_copied)
            PERF.incr("runstore.merge_deduped", report.runs_deduped)
            PERF.incr("runstore.merge_conflicts", report.conflicts)
            PERF.incr("runstore.merge_corrupt", report.corrupt)
        return report

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        """Number of results in the memory layer."""
        return len(self._memory)

    def disk_digests(self) -> set[str]:
        """Digests of every document currently on disk (every unit kind)."""
        if self.cache_dir is None:
            return set()
        return {p.stem for p in (self.cache_dir / "runs").glob("??/*.json")}

    def stats(self) -> dict:
        """What the store's directory holds, for CLI/report output (the
        per-handle ``hits``/``misses`` counters are not part of it)."""
        on_disk = self.disk_digests() if self.cache_dir is not None else set()
        return {
            "disk_runs": len(on_disk),
            "failures": len(self.failures()),
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
        }
