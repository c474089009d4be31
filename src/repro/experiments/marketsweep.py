"""Risk-vs-survival sweeps: provider risk knobs against market outcome.

The paper's §3 motivation — a risky operating point "is likely to result
in dwindling number of users, loss of reputation and revenue, and finally
out-of-business" — is a claim about *market dynamics*, not about a single
provider's objective vector.  This experiment quantifies it: hold a
marketplace of competing providers fixed, sweep one risk knob of the
*risky* provider (fault MTBF, admission policy, capacity, backlog bound),
and read off its final market share, revenue, and loyal-user count at each
level.

A :class:`MarketConfig` is a :class:`~repro.experiments.runstore.Unit`,
just as a grid cell's :class:`~repro.experiments.runstore.RunKey` is: every
run is a pure function of its config (workload, QoS, user choices, and
provider failures all derive from ``config.seed``), so
:attr:`MarketConfig.digest` content-addresses it and
:func:`~repro.experiments.pipeline.execute_plan` dedupes, shards,
supervises (timeouts, retries, failure journal, process pool),
checkpoints and resumes sweeps exactly as it does grids.  Market documents
live in the store's one ``runs/`` tree next to grid documents, under the
``repro-market-run`` format marker.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from repro.experiments.pipeline import PlanExecution, execute_plan
from repro.experiments.runstore import SCHEMA_VERSION, RunStore, StoreError
from repro.market.marketplace import Marketplace
from repro.market.provider import SyntheticSpec
from repro.market.stream import DEFAULT_ARRIVAL_FACTOR, market_job_stream

#: Format marker / document version of one stored market run.
MARKET_RUN_FORMAT = "repro-market-run"
MARKET_RUN_VERSION = 1

#: Default MTBF levels for the risk sweep (seconds): failure-free, daily,
#: four-hourly, hourly outages.  ``None`` disables the fault process
#: entirely — the survival baseline every other level is read against.
MARKET_MTBF_LEVELS: tuple[Optional[float], ...] = (
    None,
    86_400.0,
    14_400.0,
    3_600.0,
)

#: Spec fields a :class:`MarketScenario` may sweep on the risky provider.
SWEEPABLE_KNOBS = (
    "mtbf", "admission", "capacity", "queue_limit", "mttr", "outage_group",
)


@dataclass(frozen=True)
class MarketConfig:
    """Everything one market run depends on: one unit of a market sweep.

    ``providers[0]`` is by convention the *risky* provider — the one whose
    knob a :class:`MarketScenario` sweeps; the rest are the stable field
    it competes against.  A unit's result is the per-provider outcome
    block of its ``repro-market-run`` document.
    """

    providers: tuple[SyntheticSpec, ...]
    n_users: int = 1_000
    n_jobs: int = 2_000
    seed: int = 0
    share_window: float = 50_000.0
    arrival_factor: float = DEFAULT_ARRIVAL_FACTOR

    def __post_init__(self) -> None:
        if not self.providers:
            raise ValueError("MarketConfig needs at least one provider")
        for spec in self.providers:
            if not isinstance(spec, SyntheticSpec):
                raise TypeError(
                    "MarketConfig providers must be SyntheticSpec (service "
                    f"providers are not sweepable), got {type(spec).__name__}"
                )
        if self.n_users <= 0:
            raise ValueError("n_users must be positive")
        if self.n_jobs <= 0:
            raise ValueError("n_jobs must be positive")

    def with_risky(self, **changes) -> "MarketConfig":
        """A copy with fields of the risky provider (``providers[0]``)
        replaced."""
        risky = replace(self.providers[0], **changes)
        return replace(self, providers=(risky,) + self.providers[1:])

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["providers"] = [spec.to_dict() for spec in self.providers]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "MarketConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise StoreError(f"unknown MarketConfig fields: {sorted(unknown)}")
        kwargs = dict(doc)
        try:
            kwargs["providers"] = tuple(
                SyntheticSpec.from_dict(spec) for spec in doc["providers"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreError(f"malformed providers block: {exc}") from exc
        return cls(**kwargs)

    # -- the unit contract (see repro.experiments.runstore.Unit) -------------
    @property
    def digest(self) -> str:
        """Stable content digest of this run: covers everything the
        result depends on."""
        text = json.dumps(
            {"schema": SCHEMA_VERSION, "format": MARKET_RUN_FORMAT,
             "config": self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def policy(self) -> str:
        """Failure-journal label: the risky provider's name."""
        return self.providers[0].name

    @property
    def model(self) -> str:
        """Failure-journal label of every market unit."""
        return "market"

    def execute(
        self, max_sim_events: Optional[int] = None, max_sim_time: Optional[float] = None
    ) -> dict:
        """Simulate the market; returns the per-provider outcome block.

        The budgets arm the watchdog on the marketplace's simulator.
        """
        market = Marketplace(
            list(self.providers),
            n_users=self.n_users,
            seed=self.seed,
            share_window=self.share_window,
        )
        if max_sim_events is not None or max_sim_time is not None:
            market.sim.set_budget(max_events=max_sim_events, max_sim_time=max_sim_time)
        market.run(
            market_job_stream(self.n_jobs, seed=self.seed, arrival_factor=self.arrival_factor)
        )
        loyal = market.preferred_counts()
        outcomes = market.outcome_counts()
        providers = {}
        for name in market.names:
            stats = market.stats[name]
            providers[name] = {
                "final_share": market.final_share(name),
                "revenue": market.revenue(name),
                "loyal_users": loyal.get(name, 0),
                "submitted": stats.submitted,
                "accepted": stats.accepted,
                "outcomes": outcomes[name],
            }
        return providers

    def document(self, providers: dict) -> dict:
        """The stored JSON document of this run's outcome block."""
        return {
            "format": MARKET_RUN_FORMAT,
            "version": MARKET_RUN_VERSION,
            "schema": SCHEMA_VERSION,
            "key": self.digest,
            "config": self.to_dict(),
            "providers": providers,
        }

    def load(self, doc: dict) -> dict:
        """Validate one market-run document and return its outcome block."""
        if doc.get("format") != MARKET_RUN_FORMAT:
            raise StoreError(
                f"not a {MARKET_RUN_FORMAT} document: format={doc.get('format')!r}"
            )
        version = doc.get("version")
        if version != MARKET_RUN_VERSION:
            raise StoreError(f"unsupported market run document version {version!r}")
        providers = doc.get("providers")
        if not isinstance(providers, dict) or not providers:
            raise StoreError("malformed providers block")
        return providers


def default_market_config(**overrides) -> MarketConfig:
    """The canonical two-provider duel: a greedy ``risky`` provider versus
    a deadline-admission ``steady`` one of equal capacity."""
    base = MarketConfig(
        providers=(
            SyntheticSpec("risky", capacity=96.0, admission="greedy"),
            SyntheticSpec("steady", capacity=96.0, admission="deadline"),
        ),
    )
    return replace(base, **overrides) if overrides else base


# -- plan → execute → assemble -------------------------------------------------

@dataclass(frozen=True)
class MarketScenario:
    """One swept knob of the risky provider, Table-VI style."""

    name: str
    knob: str
    levels: tuple

    def __post_init__(self) -> None:
        if self.knob not in SWEEPABLE_KNOBS:
            raise ValueError(
                f"unknown market knob {self.knob!r}; expected one of "
                f"{SWEEPABLE_KNOBS}"
            )
        if not self.levels:
            raise ValueError("MarketScenario needs at least one level")

    def configs(self, base: MarketConfig) -> list[MarketConfig]:
        """The base config with the risky provider's knob set per level."""
        return [base.with_risky(**{self.knob: level}) for level in self.levels]


def mtbf_market_scenario(
    levels: Sequence[Optional[float]] = MARKET_MTBF_LEVELS,
) -> MarketScenario:
    return MarketScenario("MTBF", "mtbf", tuple(levels))


def admission_market_scenario() -> MarketScenario:
    return MarketScenario("admission", "admission", ("greedy", "deadline"))


#: Outage law shared by the correlated-risk duel's failing providers.
CORRELATED_MARKET_MTBF = 14_400.0
CORRELATED_MARKET_MTTR = 3_600.0


def correlated_market_config(**overrides) -> MarketConfig:
    """The independent-vs-correlated duel's field.

    The risky provider and a ``peer`` fail under the identical outage law;
    the peer is pinned to outage group ``"grid"``, and the scenario moves
    the *risky* provider in and out of that group.  A failure-free
    ``steady`` provider absorbs the displaced users, so the sweep reads
    off what correlation alone — same marginal availability everywhere —
    costs in market share.
    """
    base = MarketConfig(
        providers=(
            SyntheticSpec("risky", capacity=96.0, admission="greedy",
                          mtbf=CORRELATED_MARKET_MTBF,
                          mttr=CORRELATED_MARKET_MTTR),
            SyntheticSpec("peer", capacity=96.0, admission="greedy",
                          mtbf=CORRELATED_MARKET_MTBF,
                          mttr=CORRELATED_MARKET_MTTR,
                          outage_group="grid"),
            SyntheticSpec("steady", capacity=96.0, admission="deadline"),
        ),
    )
    return replace(base, **overrides) if overrides else base


def correlated_market_scenario() -> MarketScenario:
    """Sweep the risky provider between private and shared-grid outages."""
    return MarketScenario("correlated", "outage_group", (None, "grid"))


def market_plan(
    scenario: MarketScenario, base: MarketConfig
) -> list[MarketConfig]:
    """The work list of one sweep (one config per level)."""
    return scenario.configs(base)


@dataclass(frozen=True)
class MarketSweepRow:
    """One provider's outcome at one level of the sweep."""

    level: object
    provider: str
    final_share: float
    revenue: float
    loyal_users: int
    violated: int
    rejected: int


@dataclass
class MarketSweepResult:
    """Everything one market sweep produces."""

    scenario: MarketScenario
    base: MarketConfig
    rows: list[MarketSweepRow]
    execution: Optional[PlanExecution] = None

    @property
    def complete(self) -> bool:
        """True when every level's document was available at assembly
        (none deferred to another shard, none journaled as failed)."""
        per_level = len(self.base.providers)
        return len(self.rows) == len(self.scenario.levels) * per_level

    def table(self) -> str:
        """The risk-vs-survival table, ready to print."""
        risky = self.base.providers[0].name
        lines = [
            f"Market sweep — knob={self.scenario.knob} ({risky}) "
            f"users={self.base.n_users} jobs={self.base.n_jobs} "
            f"seed={self.base.seed}",
            "",
            f"{'level':>10} {'provider':<10} {'share':>7} {'revenue':>12} "
            f"{'loyal':>7} {'violated':>8} {'rejected':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{_fmt_level(self.scenario.knob, row.level):>10} "
                f"{row.provider:<10} {row.final_share:>7.3f} "
                f"{row.revenue:>12.1f} {row.loyal_users:>7} "
                f"{row.violated:>8} {row.rejected:>8}"
            )
        if not self.complete:
            lines.append("")
            lines.append("(incomplete: some levels deferred to other shards or failed)")
        return "\n".join(lines)


def _fmt_level(knob: str, level) -> str:
    if level is None:
        return "off"
    if knob in ("mtbf", "mttr") and isinstance(level, (int, float)):
        return f"{level / 3600:g}h"
    if isinstance(level, float):
        return f"{level:g}"
    return str(level)


def assemble_market_sweep(
    store: RunStore,
    scenario: MarketScenario,
    base: MarketConfig,
    execution: Optional[PlanExecution] = None,
) -> MarketSweepResult:
    """Read the sweep's documents back out of the store into a result.

    Pure read: runs nothing, so any shard (or a later process) can
    assemble from a shared cache directory.  Levels whose document is
    missing (deferred to a peer shard that has not finished, or journaled
    as failed) are simply absent from ``rows`` and flagged via
    ``MarketSweepResult.complete``.
    """
    rows: list[MarketSweepRow] = []
    for level, config in zip(scenario.levels, scenario.configs(base)):
        providers = store.lookup(config)
        if providers is None:
            continue
        for spec in config.providers:
            entry = providers.get(spec.name)
            if entry is None:
                raise StoreError(f"document missing provider {spec.name!r}")
            outcomes = entry.get("outcomes", {})
            rows.append(
                MarketSweepRow(
                    level=level,
                    provider=spec.name,
                    final_share=float(entry["final_share"]),
                    revenue=float(entry["revenue"]),
                    loyal_users=int(entry["loyal_users"]),
                    violated=int(outcomes.get("violated", 0)),
                    rejected=int(outcomes.get("rejected", 0)),
                )
            )
    return MarketSweepResult(scenario=scenario, base=base, rows=rows,
                             execution=execution)


def run_market_sweep(
    base: Optional[MarketConfig] = None,
    scenario: Optional[MarketScenario] = None,
    store: Optional[RunStore] = None,
    shard: Optional[tuple[int, int]] = None,
) -> MarketSweepResult:
    """Plan, execute, and assemble one market sweep end to end.

    ``shard=(i, n)`` (0-based) executes only that shard's misses, exactly
    as :func:`~repro.experiments.pipeline.execute_plan` does for grids.
    """
    base = base if base is not None else default_market_config()
    scenario = scenario if scenario is not None else mtbf_market_scenario()
    store = store if store is not None else RunStore()
    plan = market_plan(scenario, base)
    execution = execute_plan(plan, store, shard=shard)
    return assemble_market_sweep(store, scenario, base, execution=execution)
