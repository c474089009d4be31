"""Farm plans: a serialisable description of one grid-shaped workload.

A :class:`FarmPlan` is everything needed to (re)construct the work of one
``repro grid`` invocation — policies, economic model, estimate set,
scenario subset, base configuration, and the execution-supervision knobs
that should travel with the work (timeouts, retries, watchdog budgets,
abort-vs-degrade).  It is content addressed exactly like a run: the plan
digest covers the full payload plus the run-store schema version, so the
same submission is idempotent (resubmitting resumes) and incompatible
code revisions never collide on a job id.

Exploding a plan is just :func:`repro.experiments.pipeline.grid_plan`;
one **work unit** per unique :class:`~repro.experiments.runstore.RunKey`
digest is what the farm leases out.  The plan is the only file that
describes a job's units: workers re-explode ``job.json`` themselves
(see :mod:`repro.farm.coordinator`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.experiments.pipeline import ExecutionPolicy, grid_plan
from repro.experiments.runstore import (
    SCHEMA_VERSION,
    RunKey,
    StoreError,
    config_from_dict,
    config_to_dict,
)
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig, scenario_by_name

#: Format marker / version of one on-disk plan (or spool submission) file.
PLAN_FORMAT = "repro-farm-plan"
PLAN_VERSION = 1

#: :class:`ExecutionPolicy` knobs a plan may carry (everything JSON-able
#: that changes supervision; ``clock``/``sleep``/``batch_size`` stay local).
EXECUTION_KNOBS = (
    "run_timeout",
    "max_retries",
    "backoff_base",
    "backoff_cap",
    "max_sim_events",
    "max_sim_time",
    "on_error",
)


@dataclass(frozen=True)
class FarmPlan:
    """One submitted grid: the unit of work a farm service drives."""

    policies: tuple[str, ...]
    model: str
    set_name: str = "A"
    #: scenario names (Table VI rows); empty means all twelve.
    scenarios: tuple[str, ...] = ()
    config: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: supervision knobs applied by every worker (see :data:`EXECUTION_KNOBS`).
    execution: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.execution) - set(EXECUTION_KNOBS)
        if unknown:
            raise ValueError(f"unknown execution knobs: {sorted(unknown)}")
        self.execution_policy()  # out-of-range values fail here, not in a worker

    @property
    def on_error(self) -> str:
        return self.execution.get("on_error", "abort")

    def scenario_objects(self):
        if not self.scenarios:
            return list(SCENARIOS)
        return [scenario_by_name(name) for name in self.scenarios]

    def execution_policy(self, **overrides) -> ExecutionPolicy:
        """The :class:`ExecutionPolicy` workers supervise units under."""
        kwargs = dict(self.execution)
        kwargs.update(overrides)
        return ExecutionPolicy(**kwargs)

    def work_items(self) -> list[RunKey]:
        """The plan's logical accesses, exactly as a local grid would run."""
        return grid_plan(
            self.policies, self.model, self.config, self.set_name,
            self.scenario_objects(),
        )

    def unique_units(self) -> list[tuple[RunKey, str]]:
        """Deduped ``(unit, digest)`` pairs in first-access order."""
        units: list[tuple[RunKey, str]] = []
        seen: set[str] = set()
        for unit in self.work_items():
            digest = unit.digest
            if digest not in seen:
                seen.add(digest)
                units.append((unit, digest))
        return units

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "schema": SCHEMA_VERSION,
            "policies": list(self.policies),
            "model": self.model,
            "set": self.set_name,
            "scenarios": list(self.scenarios),
            "config": config_to_dict(self.config),
            "execution": dict(self.execution),
        }

    @property
    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def job_id(self) -> str:
        """Short, content-addressed job directory name."""
        return self.digest[:12]

    @classmethod
    def from_dict(cls, doc: dict) -> "FarmPlan":
        if doc.get("format") != PLAN_FORMAT:
            raise StoreError(
                f"not a {PLAN_FORMAT} document: format={doc.get('format')!r}"
            )
        version = doc.get("version")
        if version != PLAN_VERSION:
            if isinstance(version, int) and version > PLAN_VERSION:
                raise StoreError(
                    f"plan version {version} is newer than this code supports "
                    f"({PLAN_VERSION}); upgrade repro to serve it"
                )
            raise StoreError(f"unsupported plan version {version!r}")
        if doc.get("schema") != SCHEMA_VERSION:
            raise StoreError(
                f"plan was submitted under run-store schema {doc.get('schema')!r}; "
                f"this code runs schema {SCHEMA_VERSION} — resubmit the plan"
            )
        try:
            return cls(
                policies=tuple(str(p) for p in doc["policies"]),
                model=str(doc["model"]),
                set_name=str(doc.get("set", "A")),
                scenarios=tuple(str(s) for s in doc.get("scenarios", ())),
                config=config_from_dict(doc.get("config", {})),
                execution=dict(doc.get("execution", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed farm plan: {exc}") from exc


def load_plan_text(text: str) -> FarmPlan:
    """Parse one submission/plan file's text."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise StoreError(f"plan file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StoreError("plan file must contain a JSON object")
    return FarmPlan.from_dict(doc)


def plan_from_args(
    policies: Sequence[str],
    model: str,
    base: ExperimentConfig,
    set_name: str = "A",
    scenarios: Sequence[str] = (),
    execution: Optional[ExecutionPolicy] = None,
) -> FarmPlan:
    """Build a plan from ``repro grid``-shaped arguments.

    Only the :data:`EXECUTION_KNOBS` of ``execution`` that differ from an
    ``ExecutionPolicy()``'s enter the payload, so the plan digest of a
    plain submission does not churn when defaults evolve.
    """
    defaults = ExecutionPolicy()
    execution = execution or defaults
    knobs = {
        name: getattr(execution, name) for name in EXECUTION_KNOBS
        if getattr(execution, name) != getattr(defaults, name)
    }
    return FarmPlan(
        policies=tuple(policies),
        model=model,
        set_name=set_name,
        scenarios=tuple(scenarios),
        config=base,
        execution=knobs,
    )
