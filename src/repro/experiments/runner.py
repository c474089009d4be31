"""Experiment runner: configuration → workload → simulation → risk analysis.

The controlled-comparison discipline of the paper is enforced here: every
policy evaluated at a given configuration sees the *identical* job list
(same trace draw, same QoS draw, same estimate interpolation), and the wait
objective is normalised across exactly the policies being compared.

:func:`run_single` only simulates.  Grid-shaped work flows through
:func:`~repro.experiments.pipeline.execute_plan`, which caches each run
per ``(config, policy, model)`` in a
:class:`~repro.experiments.runstore.RunStore` and dedupes, shards,
checkpoints, and resumes against it; the default configuration appears in
all twelve scenarios, so a full grid reuses it eleven times per policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.core.objectives import Objective, ObjectiveSet
from repro.economy.models import make_model
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig, Scenario
from repro.perf.registry import PERF
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from repro.sim.rng import RngStreams
from repro.workload.estimates import inaccurate_estimates
from repro.workload.job import Job, Urgency
from repro.workload.qos import draw_qos
from repro.workload.synthetic import SDSC_SP2, TraceColumns, trace_columns

if TYPE_CHECKING:
    from repro.core.riskplot import RiskPlot
    from repro.core.separate import SeparateRisk
    from repro.experiments.runstore import RunStore


#: Memoised base traces keyed by ``(seed, n_jobs, max_procs)``.  The base
#: trace is shared by every value of every scenario at a given scale, so a
#: grid synthesises it once instead of 72+ times.  Entries are columns of
#: builtin values that :func:`build_workload` only reads.
_TRACE_MEMO: dict[tuple[int, int, int], TraceColumns] = {}
_TRACE_MEMO_MAX = 8


def _base_trace(seed: int, n_jobs: int, max_procs: int) -> TraceColumns:
    key = (seed, n_jobs, max_procs)
    cached = _TRACE_MEMO.get(key)
    if cached is not None:
        if PERF.enabled:
            PERF.incr("runner.trace_memo_hits")
        return cached
    streams = RngStreams(seed=seed)
    model = replace(SDSC_SP2, n_jobs=n_jobs, max_procs=max_procs)
    columns = trace_columns(model, rng=streams.get("trace"))
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = columns
    return columns


def warm_trace_memo(items) -> int:
    """Pre-synthesise the base traces a set of work items will need.

    Called by the pool executor *before* it forks workers: the traces
    land in ``_TRACE_MEMO`` in the parent, so every forked worker
    inherits them by copy-on-write instead of each synthesising its own.
    ``items`` is any iterable of ``(config, policy, model)`` grid units;
    at most ``_TRACE_MEMO_MAX`` distinct traces are warmed (warming more
    would just evict earlier entries).  Returns the number warmed.
    """
    keys: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for config, _policy, _model in items:
        key = (
            config.seed,
            config.n_jobs,
            min(SDSC_SP2.max_procs, config.total_procs),
        )
        if key not in seen:
            seen.add(key)
            keys.append(key)
    for key in keys[:_TRACE_MEMO_MAX]:
        _base_trace(*key)
    return min(len(keys), _TRACE_MEMO_MAX)


def build_workload(config: ExperimentConfig) -> list[Job]:
    """Materialise the job list a configuration describes.

    The base trace depends only on ``(seed, n_jobs)``; the arrival-delay
    factor rescales inter-arrival gaps (paper §5.3: a factor of 0.1 turns a
    600 s gap into 60 s, i.e. lower factor = heavier load); QoS parameters
    (:func:`~repro.workload.qos.draw_qos`) and estimate inaccuracy
    (:func:`~repro.workload.estimates.inaccurate_estimates`) are then
    layered on deterministically.

    The list is built column by column from the memoised base trace, and
    each job is constructed once, with every field final: the same jobs as
    cloning a base trace and applying
    :func:`~repro.workload.qos.assign_qos` and
    :func:`~repro.workload.estimates.apply_inaccuracy` to it.  The returned
    jobs are freshly owned, so job lists can never be corrupted across runs
    through the memo (or any future sharing via the run store).
    """
    if config.arrival_delay_factor <= 0:
        raise ValueError("arrival delay factor must be positive")
    base = _base_trace(
        config.seed, config.n_jobs, min(SDSC_SP2.max_procs, config.total_procs)
    )
    submit_times = base.submit_times
    if config.arrival_delay_factor != 1.0:
        factor = config.arrival_delay_factor
        submit_times = [t * factor for t in submit_times]
    qos = draw_qos(
        base.runtimes, config.qos_spec(), rng=RngStreams(seed=config.seed).get("qos")
    )
    estimates = inaccurate_estimates(
        base.runtimes, base.trace_estimates, config.inaccuracy_pct
    )
    n = len(base.runtimes)
    users = base.user_ids if base.user_ids is not None else [None] * n
    high_urgency, low_urgency = Urgency.HIGH, Urgency.LOW
    return [
        Job(
            job_id, submit_time, runtime, estimate, procs, deadline, budget,
            penalty_rate, high_urgency if is_high else low_urgency, trace_estimate,
            {} if user is None else {"user_id": user},
        )
        for (
            job_id, submit_time, runtime, estimate, procs, deadline, budget,
            penalty_rate, is_high, trace_estimate, user,
        ) in zip(
            range(1, n + 1), submit_times, base.runtimes, estimates, base.procs,
            qos.deadlines, qos.budgets, qos.penalty_rates, qos.high_urgency,
            base.trace_estimates, users,
        )
    ]


def run_single(
    config: ExperimentConfig,
    policy_name: str,
    model_name: str,
    max_sim_events: Optional[int] = None,
    max_sim_time: Optional[float] = None,
) -> ObjectiveSet:
    """Run one policy on one configuration and measure the four objectives.

    ``max_sim_events`` / ``max_sim_time`` arm the simulation watchdog
    (:meth:`repro.sim.engine.Simulator.set_budget`): a scenario that would
    spin forever raises :class:`~repro.sim.engine.SimBudgetExceeded`
    instead, which the pipeline supervisor classifies as a retryable
    timeout.  The budgets are execution knobs, not part of the run's
    content identity — they never change the :class:`RunKey` digest.
    """
    t0 = time.perf_counter()
    jobs = build_workload(config)
    sim = None
    if max_sim_events is not None or max_sim_time is not None:
        from repro.sim.engine import Simulator

        sim = Simulator()
        sim.set_budget(max_events=max_sim_events, max_sim_time=max_sim_time)
    service = CommercialComputingService(
        make_policy(policy_name),
        make_model(model_name),
        total_procs=config.total_procs,
        sim=sim,
        fault_config=config.faults if config.faults.enabled else None,
        fault_seed=config.seed,
    )
    objectives = service.run(jobs).objectives()
    if PERF.enabled:
        PERF.add_time("runner.run_single_s", time.perf_counter() - t0)
        PERF.incr("runner.simulations")
        PERF.incr("runner.jobs_simulated", len(jobs))
    return objectives


@dataclass
class GridAnalysis:
    """Separate risk analyses of all objectives × policies × scenarios.

    The raw material of every risk-analysis plot in the paper's §6:
    ``separate[objective][policy][scenario]`` is a :class:`SeparateRisk`.

    A degraded assembly (``assemble_grid(..., on_missing="degrade")``)
    marks cells whose runs are missing with :meth:`SeparateRisk.gap`
    markers and lists each missing run in ``gaps`` — plots simply omit
    the gap points, and :meth:`gaps_report` renders the inventory.
    """

    model: str
    set_name: str
    policies: tuple[str, ...]
    scenarios: tuple[str, ...]
    separate: dict[Objective, dict[str, dict[str, SeparateRisk]]]
    #: one entry per missing run of a degraded assembly (digest, policy,
    #: scenario, knob, value, kind, reason); empty for a complete grid.
    gaps: tuple = ()

    @property
    def degraded(self) -> bool:
        """True when this analysis was assembled around missing runs."""
        return bool(self.gaps)

    def gaps_report(self) -> list[dict]:
        """Table-ready rows describing every gap (empty when complete)."""
        return [
            {
                "digest": gap["digest"][:12],
                "policy": gap["policy"],
                "scenario": gap["scenario"],
                "knob": f"{gap['knob']}={gap['value']:g}",
                "kind": gap["kind"],
                "reason": gap["reason"],
            }
            for gap in self.gaps
        ]

    def to_dict(self) -> dict:
        """The grid as a versioned JSON document (the comparison form).

        Gap cells of a degraded grid become ``[null, null]`` pairs (strict
        JSON has no NaN literal), and the gap inventory rides along under
        ``"gaps"`` (omitted when complete), so a degraded grid's document
        is self-describing.
        """
        separate = {
            objective.value: {
                policy: {
                    scenario: [None, None] if risk.is_gap
                    else [risk.performance, risk.volatility]
                    for scenario, risk in by_scenario.items()
                }
                for policy, by_scenario in self.separate[objective].items()
            }
            for objective in Objective
        }
        doc = {
            "format": "repro-grid",
            "version": 1,
            "model": self.model,
            "set_name": self.set_name,
            "policies": list(self.policies),
            "scenarios": list(self.scenarios),
            "separate": separate,
        }
        if self.gaps:
            doc["gaps"] = [dict(gap) for gap in self.gaps]
        return doc

    def save(self, path: Union[str, Path]) -> Path:
        """Write :meth:`to_dict` as JSON, atomically; returns the path."""
        import json

        from repro.experiments.runstore import atomic_write_text

        path = Path(path)
        atomic_write_text(path, json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path

    def separate_plot(self, objective: Objective, title: str = "") -> RiskPlot:
        """Fig. 3/6-style plot: one objective, one point per scenario.

        Gap cells of a degraded grid are omitted from the plot (they have
        no coordinates); see :meth:`gaps_report` for what is missing.
        """
        from repro.core.riskplot import RiskPlot

        plot = RiskPlot(title=title or f"{self.model} Set {self.set_name}: {objective.value}")
        for policy in self.policies:
            for scenario in self.scenarios:
                risk = self.separate[objective][policy][scenario]
                if risk.is_gap:
                    continue
                plot.add_point(policy, scenario, risk.volatility, risk.performance)
        return plot

    def risk_profiles(self):
        """A priori risk profiles aggregated from this grid (paper §7's
        follow-on; see :mod:`repro.core.apriori`)."""
        from repro.core.apriori import build_profiles

        return build_profiles(self.separate)

    def integrated_plot(
        self,
        objectives: Sequence[Objective],
        weights: Optional[dict[Objective, float]] = None,
        title: str = "",
    ) -> RiskPlot:
        """Fig. 4/5/7/8-style plot: a weighted combination of objectives."""
        from repro.core.integrated import integrated_risk
        from repro.core.riskplot import RiskPlot

        names = ", ".join(o.value for o in objectives)
        plot = RiskPlot(title=title or f"{self.model} Set {self.set_name}: {names}")
        for policy in self.policies:
            for scenario in self.scenarios:
                separate = {o: self.separate[o][policy][scenario] for o in objectives}
                if any(risk.is_gap for risk in separate.values()):
                    continue  # degraded cell: no point to plot
                combined = integrated_risk(separate, weights)
                plot.add_point(policy, scenario, combined.volatility, combined.performance)
        return plot


def run_grid(
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    set_name: str = "A",
    scenarios: Sequence[Scenario] = SCENARIOS,
    cache: Optional[RunStore] = None,
    wait_method: str = "grid-max",
    n_workers: int = 1,
) -> GridAnalysis:
    """Run the full Table VI grid for one economic model and estimate set.

    The unified pipeline end to end: plan → execute (checkpointing each
    run to ``cache`` as it completes, in-process or over ``n_workers``
    pool processes) → assemble.  Results are bit-identical for every
    ``n_workers``.  With a disk-backed
    :class:`~repro.experiments.runstore.RunStore` as the cache, an
    interrupted grid resumes from where it stopped.
    """
    from repro.experiments.pipeline import assemble_grid, execute_plan, grid_plan
    from repro.experiments.runstore import RunStore

    cache = cache if cache is not None else RunStore()
    t0 = time.perf_counter()
    execute_plan(
        grid_plan(policies, model_name, base, set_name, scenarios),
        cache,
        n_workers=n_workers,
    )
    grid = assemble_grid(
        cache, policies, model_name, base, set_name, scenarios, wait_method
    )
    if PERF.enabled:
        PERF.add_time("runner.grid_s", time.perf_counter() - t0)
        PERF.incr("runner.grids")
    return grid
