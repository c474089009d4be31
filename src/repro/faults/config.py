"""Experiment-level description of a failure regime.

:class:`FaultConfig` is deliberately dependency-free (plain dataclass, no
numpy, no simulator imports): it is embedded in
:class:`~repro.experiments.scenarios.ExperimentConfig`, hashed into every
:class:`~repro.experiments.runstore.RunKey`, and serialised into run-store
documents, so it must be frozen, hashable, and JSON round-trippable.

Beyond the independent per-node MTBF/MTTR process, a config can describe
*correlated* failure structure (see :mod:`repro.faults.topology`):

- **fault domains** — nodes grouped into racks (``domain_size``) and
  racks into sites (``site_racks``), each layer with its own outage
  process (``domain_mtbf``/``domain_mttr``, ``site_mtbf``/``site_mttr``)
  or a deterministic ``domain_schedule``; a domain outage takes its whole
  group down atomically;
- **cascades** — a failure propagates to each topology peer with
  probability ``cascade_prob`` after a deterministic ``cascade_delay``,
  up to ``cascade_depth`` hops;
- **elastic capacity** — nodes commissioned/decommissioned mid-run,
  scripted (``elastic_schedule``) or stochastic (``elastic_interval``,
  bounded by ``elastic_max_extra``).

Every new knob is sweepable as a virtual ``fault_<name>`` field of
:meth:`~repro.experiments.scenarios.ExperimentConfig.with_values`.
"""

from __future__ import annotations

import difflib
import warnings
from dataclasses import dataclass, fields, replace

#: recovery disciplines applied to jobs killed by a node failure.
RECOVERY_MODES = ("resubmit", "checkpoint")
#: supported failure/repair processes.
FAULT_MODELS = ("exponential", "weibull", "scripted")
#: supported elastic-capacity processes.
ELASTIC_MODELS = ("none", "scripted", "stochastic")

#: per-node process defaults, named so cross-field validation can tell an
#: explicitly-set value from an untouched one.
DEFAULT_MTBF = 4 * 86_400.0
DEFAULT_MTTR = 3_600.0


@dataclass(frozen=True)
class FaultConfig:
    """One failure regime: who fails, how often, and how jobs recover.

    Attributes
    ----------
    enabled:
        Master switch.  Disabled (the default) means no injector is built
        and the simulation path is byte-identical to a fault-free build.
    model:
        ``"exponential"`` or ``"weibull"`` MTBF/MTTR processes, or
        ``"scripted"`` to replay :attr:`schedule` deterministically.
    mtbf:
        Mean time between failures *per node*, in simulated seconds.
    mttr:
        Mean time to repair a failed node, in simulated seconds.
    weibull_shape:
        Shape parameter of the Weibull time-to-failure distribution
        (> 1 models wear-out, < 1 infant mortality; 1 is exponential).
    recovery:
        ``"resubmit"`` — a killed job loses all progress and re-enters the
        policy's admission path; ``"checkpoint"`` — the job resumes from
        its last periodic checkpoint, paying :attr:`checkpoint_overhead`.
    checkpoint_interval:
        Seconds of completed work between checkpoints.
    checkpoint_overhead:
        Restore cost in seconds added to the remaining runtime when a job
        resumes from a checkpoint.
    schedule:
        Scripted model only: ``(fail_time, node_id, downtime)`` triples in
        simulated seconds, applied verbatim.
    domain_size:
        Nodes per rack fault domain; ``0`` disables the domain layer (and
        with it every domain/cascade feature).
    site_racks:
        Racks per site fault domain; ``0`` disables the site layer.
    domain_mtbf / domain_mttr:
        Exponential outage process per rack (``domain_mtbf = 0`` disables
        stochastic rack outages); an outage fails the whole rack
        atomically for an exponential(``domain_mttr``) downtime.
    site_mtbf / site_mttr:
        Same, per site.
    domain_schedule:
        Deterministic ``(fail_time, domain_name, downtime)`` triples,
        where the name is ``node<i>``, ``rack<r>``, or ``site<s>`` (see
        :class:`~repro.faults.topology.FaultTopology`).
    cascade_prob:
        Per-edge probability that a failure propagates to each topology
        peer (rack-mates for a node failure, sibling racks for a rack
        outage); ``0`` disables cascades.
    cascade_delay:
        Deterministic seconds between a failure and the peer failures it
        triggers.
    cascade_depth:
        Maximum propagation hops from the originating failure.
    elastic_model:
        ``"none"``, ``"scripted"`` (replay :attr:`elastic_schedule`), or
        ``"stochastic"`` (capacity events every exponential
        (:attr:`elastic_interval`) seconds).
    elastic_schedule:
        Scripted elastic only: ``(time, delta)`` pairs; positive deltas
        commission that many nodes, negative deltas decommission
        previously commissioned ones (never the base machine).
    elastic_interval:
        Stochastic elastic only: mean seconds between capacity events.
    elastic_max_extra:
        Stochastic elastic only: cap on concurrently commissioned nodes.
    """

    enabled: bool = False
    model: str = "exponential"
    mtbf: float = DEFAULT_MTBF
    mttr: float = DEFAULT_MTTR
    weibull_shape: float = 1.5
    recovery: str = "resubmit"
    checkpoint_interval: float = 1_800.0
    checkpoint_overhead: float = 60.0
    schedule: tuple[tuple[float, int, float], ...] = ()
    # -- fault domains (repro.faults.topology) --------------------------------
    domain_size: int = 0
    site_racks: int = 0
    domain_mtbf: float = 0.0
    domain_mttr: float = 7_200.0
    site_mtbf: float = 0.0
    site_mttr: float = 14_400.0
    domain_schedule: tuple[tuple[float, str, float], ...] = ()
    # -- cascades -------------------------------------------------------------
    cascade_prob: float = 0.0
    cascade_delay: float = 30.0
    cascade_depth: int = 1
    # -- elastic capacity -----------------------------------------------------
    elastic_model: str = "none"
    elastic_schedule: tuple[tuple[float, int], ...] = ()
    elastic_interval: float = 0.0
    elastic_max_extra: int = 0

    def __post_init__(self) -> None:
        if self.model not in FAULT_MODELS:
            raise ValueError(f"unknown fault model {self.model!r}; choose from {FAULT_MODELS}")
        if self.recovery not in RECOVERY_MODES:
            raise ValueError(
                f"unknown recovery mode {self.recovery!r}; choose from {RECOVERY_MODES}"
            )
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ValueError("MTBF and MTTR must be positive")
        if self.weibull_shape <= 0:
            raise ValueError("Weibull shape must be positive")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        if self.checkpoint_overhead < 0:
            raise ValueError("checkpoint overhead cannot be negative")
        # Normalise the schedule so equal regimes hash equally regardless of
        # whether they were built from lists (JSON) or tuples (code).
        normalised = tuple(
            (float(t), int(node), float(downtime)) for t, node, downtime in self.schedule
        )
        for t, _, downtime in normalised:
            if t < 0 or downtime <= 0:
                raise ValueError("scripted failures need time >= 0 and downtime > 0")
        object.__setattr__(self, "schedule", normalised)
        self._validate_domains()
        self._validate_cascade()
        self._validate_elastic()
        self._warn_ignored_fields()

    def _validate_domains(self) -> None:
        if self.domain_size < 0 or self.site_racks < 0:
            raise ValueError("domain_size and site_racks cannot be negative")
        if self.domain_mtbf < 0 or self.site_mtbf < 0:
            raise ValueError("domain/site MTBF cannot be negative (0 disables)")
        if self.domain_mttr <= 0 or self.site_mttr <= 0:
            raise ValueError("domain/site MTTR must be positive")
        if self.site_racks > 0 and self.domain_size == 0:
            raise ValueError(
                "site_racks > 0 requires a rack layer: set domain_size > 0"
            )
        if self.domain_mtbf > 0 and self.domain_size == 0:
            raise ValueError(
                "domain_mtbf > 0 requires a fault topology: set domain_size > 0"
            )
        if self.site_mtbf > 0 and self.site_racks == 0:
            raise ValueError(
                "site_mtbf > 0 requires a site layer: set site_racks > 0"
            )
        normalised = tuple(
            (float(t), str(name), float(downtime))
            for t, name, downtime in self.domain_schedule
        )
        for t, name, downtime in normalised:
            if t < 0 or downtime <= 0:
                raise ValueError(
                    "scripted domain outages need time >= 0 and downtime > 0"
                )
            if (name.startswith("rack") or name.startswith("site")) and self.domain_size == 0:
                raise ValueError(
                    f"domain_schedule targets {name!r} but the config has no "
                    "fault topology: set domain_size > 0"
                )
            if name.startswith("site") and self.site_racks == 0:
                raise ValueError(
                    f"domain_schedule targets {name!r} but the config has no "
                    "site layer: set site_racks > 0"
                )
        object.__setattr__(self, "domain_schedule", normalised)

    def _validate_cascade(self) -> None:
        if not 0.0 <= self.cascade_prob <= 1.0:
            raise ValueError("cascade_prob must be in [0, 1]")
        if self.cascade_delay <= 0:
            raise ValueError("cascade_delay must be positive")
        if self.cascade_depth < 1:
            raise ValueError("cascade_depth must be >= 1")
        if self.cascade_prob > 0 and self.domain_size == 0:
            raise ValueError(
                "cascade_prob > 0 requires a fault topology (cascade edges "
                "are topology peers): set domain_size > 0"
            )

    def _validate_elastic(self) -> None:
        if self.elastic_model not in ELASTIC_MODELS:
            raise ValueError(
                f"unknown elastic model {self.elastic_model!r}; "
                f"choose from {ELASTIC_MODELS}"
            )
        if self.elastic_interval < 0:
            raise ValueError("elastic_interval cannot be negative")
        if self.elastic_max_extra < 0:
            raise ValueError("elastic_max_extra cannot be negative")
        normalised = tuple(
            (float(t), int(delta)) for t, delta in self.elastic_schedule
        )
        for t, delta in normalised:
            if t < 0:
                raise ValueError("elastic events need time >= 0")
            if delta == 0:
                raise ValueError("elastic schedule deltas must be non-zero")
        object.__setattr__(self, "elastic_schedule", normalised)
        if self.elastic_model == "scripted" and not self.elastic_schedule:
            raise ValueError("elastic_model='scripted' needs a non-empty elastic_schedule")
        if self.elastic_model != "scripted" and self.elastic_schedule:
            raise ValueError(
                f"elastic_schedule is set but elastic_model={self.elastic_model!r} "
                "ignores it; set elastic_model='scripted'"
            )
        if self.elastic_model == "stochastic":
            if self.elastic_interval <= 0:
                raise ValueError("elastic_model='stochastic' needs elastic_interval > 0")
            if self.elastic_max_extra <= 0:
                raise ValueError("elastic_model='stochastic' needs elastic_max_extra > 0")

    def _warn_ignored_fields(self) -> None:
        """Flag cross-field combinations that would be silently ignored."""
        if self.model == "scripted" and (
            self.mtbf != DEFAULT_MTBF or self.mttr != DEFAULT_MTTR
        ):
            warnings.warn(
                "FaultConfig(model='scripted') replays its schedule verbatim: "
                "the configured mtbf/mttr are ignored (the schedule's own "
                "times and downtimes apply)",
                UserWarning,
                stacklevel=4,
            )

    # -- derived ---------------------------------------------------------------
    @property
    def availability(self) -> float:
        """Steady-state per-node availability, MTBF / (MTBF + MTTR)."""
        return self.mtbf / (self.mtbf + self.mttr)

    @property
    def has_correlated_faults(self) -> bool:
        """True when any domain/cascade feature is active — collisions
        between failure sources then become expected, not config errors."""
        return bool(
            self.domain_mtbf > 0
            or self.site_mtbf > 0
            or self.domain_schedule
            or self.cascade_prob > 0
        )

    @property
    def has_elastic(self) -> bool:
        return self.elastic_model != "none"

    def with_values(self, **kwargs) -> "FaultConfig":
        return replace(self, **kwargs)

    # -- serialisation ---------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready view (tuples become lists; inverse of :meth:`from_dict`)."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["schedule"] = [list(entry) for entry in self.schedule]
        doc["domain_schedule"] = [list(entry) for entry in self.domain_schedule]
        doc["elastic_schedule"] = [list(entry) for entry in self.elastic_schedule]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            hints = []
            for name in sorted(unknown):
                close = difflib.get_close_matches(name, known, n=1)
                if close:
                    hints.append(f"did you mean {close[0]!r} instead of {name!r}?")
            suffix = f" ({' '.join(hints)})" if hints else ""
            raise ValueError(
                f"unknown FaultConfig fields: {sorted(unknown)}{suffix}"
            )
        kwargs = dict(doc)
        if "schedule" in kwargs:
            kwargs["schedule"] = tuple(tuple(entry) for entry in kwargs["schedule"])
        if "domain_schedule" in kwargs:
            kwargs["domain_schedule"] = tuple(
                tuple(entry) for entry in kwargs["domain_schedule"]
            )
        if "elastic_schedule" in kwargs:
            kwargs["elastic_schedule"] = tuple(
                tuple(entry) for entry in kwargs["elastic_schedule"]
            )
        return cls(**kwargs)


#: the shared fault-free default embedded in every ExperimentConfig.
NO_FAULTS = FaultConfig()

#: The rack-structured machine the correlated fault sweep runs on: racks of
#: 8 nodes, one outage per rack-day lasting an hour, a cascade hop 30 s
#: after its trigger, and a per-node MTBF of 4 days.  ``repro faults
#: --sweep correlated`` takes its option defaults from these fields.
CORRELATED_FAULTS = FaultConfig(
    enabled=True,
    mtbf=345_600.0,
    domain_size=8,
    domain_mtbf=86_400.0,
    domain_mttr=3_600.0,
    cascade_delay=30.0,
)
