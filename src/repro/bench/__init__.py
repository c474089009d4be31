"""Deterministic benchmark harness: ``python -m repro.bench``.

Three suites, two tiers (``--quick`` for CI smoke runs, ``--full`` for
real measurement):

- **engine** — raw event-calendar throughput.  A fixed cascade of
  self-rescheduling event chains (with a deterministic cancellation churn
  component) is driven through three simulator variants: an
  *uninstrumented baseline* (instrumentation pinned off via a private
  registry), the real engine with perf hooks *disabled*, and the real
  engine with perf hooks *enabled* (sampled latency + boundary-flushed
  counters).  The disabled-vs-baseline gap is the instrumentation's
  disabled-path overhead, which must stay under 5 %; the enabled gap must
  stay under 10 %.
- **scenario** — one seeded policy simulation end to end
  (workload synthesis → service → objectives), reported as jobs/sec and
  events/sec.
- **grid** — a reduced Table VI grid run serially, through the
  process-pool runner, and twice against a persistent run store (cold
  then warm), reported as wall-clock seconds and speedups; plus a
  single-worker in-process farm pass (``farm_*`` metrics) that prices
  the lease/marker/merge machinery against a direct ``execute_plan``
  of the same units.

Results are written as ``BENCH_sim.json`` and ``BENCH_grid.json`` at the
output directory (repo root by convention).  All workloads are seeded and
size-fixed per tier, so the ``workload`` metadata block of repeated runs
is byte-identical — only the ``metrics`` block (timings) varies.  Compare
two runs with ``python -m repro.perf.compare``.

Non-refresh policy: the committed ``BENCH_*.json`` files are reference
points from the box that wrote them and are **not** refreshed when a
change merely adds metrics — ``repro.perf.compare`` reports metrics
absent on one side as a grouped note, never a failure, so new families
(such as ``farm_*``) appear in fresh runs without invalidating the
committed baselines.  Refresh the committed files only when measuring on
comparable hardware and the change is meant to move the numbers.

See ``docs/benchmarking.md`` for the workflow.
"""

from __future__ import annotations

import json
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.experiments.runner import run_grid, run_single
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.market import Marketplace, SyntheticSpec, market_job_stream
from repro.perf import PERF, PerfRegistry, capture
from repro.sim.engine import Simulator

#: BENCH file schema version (bump on incompatible layout changes).
BENCH_SCHEMA = 1


@dataclass(frozen=True)
class BenchTier:
    """Fixed workload sizes for one benchmark tier."""

    name: str
    engine_events: int
    engine_chains: int
    engine_repeats: int
    scenario_jobs: int
    scenario_procs: int
    scenario_policy: str
    scenario_model: str
    grid_jobs: int
    grid_procs: int
    grid_scenarios: tuple[str, ...]
    grid_policies: tuple[str, ...]
    grid_model: str
    grid_workers: int
    seed: int = 0
    # Fault-injected scenario variant (same scenario workload under an
    # exponential failure regime; checkpoint recovery exercises the most
    # bookkeeping per failure).
    fault_mtbf: float = 14_400.0
    fault_mttr: float = 600.0
    fault_recovery: str = "checkpoint"
    # Correlated-fault variant: the same failure regime plus rack-level
    # outages and cascades, pricing the fault-domain machinery.
    fault_domain_size: int = 8
    fault_domain_mtbf: float = 28_800.0
    fault_cascade_prob: float = 0.25
    # Population-scale market (§3 extension): cohort backend, one risky
    # and one steady synthetic provider competing for this population.
    market_users: int = 100_000
    market_jobs: int = 20_000


QUICK = BenchTier(
    name="quick",
    engine_events=120_000,
    engine_chains=64,
    engine_repeats=3,
    scenario_jobs=120,
    scenario_procs=128,
    scenario_policy="FCFS-BF",
    scenario_model="bid",
    grid_jobs=120,
    grid_procs=64,
    grid_scenarios=("job mix", "workload"),
    grid_policies=("FCFS-BF", "EDF-BF", "Libra"),
    grid_model="bid",
    grid_workers=2,
)

FULL = BenchTier(
    name="full",
    engine_events=1_000_000,
    engine_chains=256,
    engine_repeats=5,
    scenario_jobs=1000,
    scenario_procs=128,
    scenario_policy="FCFS-BF",
    scenario_model="bid",
    grid_jobs=120,
    grid_procs=128,
    grid_scenarios=("job mix", "workload", "deadline ratio", "budget ratio"),
    grid_policies=("FCFS-BF", "Libra", "LibraRiskD"),
    grid_model="bid",
    grid_workers=2,
    market_users=1_000_000,
    market_jobs=100_000,
)

TIERS = {tier.name: tier for tier in (QUICK, FULL)}


class UninstrumentedSimulator(Simulator):
    """The engine with instrumentation pinned off.

    A private, permanently-disabled registry replaces the global ``PERF``
    alias, so this variant never samples latency or flushes counters no
    matter what the global switch says.  Benchmarking it against the real
    engine (with the global hooks disabled, then enabled) isolates the
    disabled-path and enabled-path costs of the instrumentation itself.
    Event ordering and cancellation semantics are exactly the stock
    engine's — the parity test in ``tests/test_bench.py`` holds it to that.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._perf = PerfRegistry()  # always disabled, never the global


def _noop() -> None:
    pass


def _run_engine_cascade(sim: Simulator, n_events: int, chains: int) -> float:
    """Drive a deterministic event cascade; returns wall-clock seconds.

    Each chain event reschedules itself with an arithmetic (seed-free,
    reproducible) delay pattern; every fourth step additionally schedules
    a victim event and cancels it, so the cancelled-event churn path is
    part of the measured loop.
    """
    remaining = [n_events]

    def tick(chain: int, step: int) -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        delay = 1.0 + ((chain * 31 + step * 7) % 11)
        sim.schedule(delay, tick, chain, step + 1)
        if step % 4 == 0:
            victim = sim.schedule(delay * 2.0, _noop)
            victim.cancel()

    for chain in range(chains):
        sim.schedule(1.0 + (chain % 7), tick, chain, 0)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def _one_events_per_sec(make_sim: Callable[[], Simulator], n_events: int,
                        chains: int) -> float:
    sim = make_sim()
    wall = _run_engine_cascade(sim, n_events, chains)
    return sim.events_executed / wall if wall > 0 else 0.0


def bench_engine(tier: BenchTier) -> dict:
    """Raw engine throughput: baseline vs disabled vs enabled hooks.

    The three variants are measured in interleaved rounds (best-of-N per
    variant), and the order within each round rotates, so CPU frequency
    drift and cache warm-up hit all of them evenly rather than biasing
    whichever consistently ran first or last.
    """

    def run_baseline() -> float:
        PERF.enabled = False
        return _one_events_per_sec(
            UninstrumentedSimulator, tier.engine_events, tier.engine_chains)

    def run_disabled() -> float:
        PERF.enabled = False
        return _one_events_per_sec(
            Simulator, tier.engine_events, tier.engine_chains)

    def run_enabled() -> float:
        PERF.enabled = True
        return _one_events_per_sec(
            Simulator, tier.engine_events, tier.engine_chains)

    prev = PERF.enabled
    best = {"baseline": 0.0, "disabled": 0.0, "enabled": 0.0}
    variants = [
        ("baseline", run_baseline),
        ("disabled", run_disabled),
        ("enabled", run_enabled),
    ]
    try:
        for round_no in range(tier.engine_repeats):
            for offset in range(len(variants)):
                name, fn = variants[(round_no + offset) % len(variants)]
                best[name] = max(best[name], fn())
    finally:
        PERF.enabled = prev
    baseline = best["baseline"]
    disabled = best["disabled"]
    enabled = best["enabled"]
    disabled_overhead = 100.0 * (baseline - disabled) / baseline if baseline else 0.0
    enabled_overhead = 100.0 * (baseline - enabled) / baseline if baseline else 0.0
    return {
        "engine_events_per_sec": disabled,
        "engine_events_per_sec_baseline": baseline,
        "engine_events_per_sec_enabled": enabled,
        "perf_disabled_overhead_pct": max(disabled_overhead, 0.0),
        "perf_enabled_overhead_pct": max(enabled_overhead, 0.0),
    }


def bench_scenario(tier: BenchTier) -> dict:
    """One end-to-end policy simulation under the perf registry."""
    config = ExperimentConfig(
        n_jobs=tier.scenario_jobs, total_procs=tier.scenario_procs, seed=tier.seed
    )
    with capture() as perf:
        t0 = time.perf_counter()
        run_single(config, tier.scenario_policy, tier.scenario_model)
        wall = time.perf_counter() - t0
        events = perf.counters.get("sim.events_executed", 0)
        latency = perf.rings.get("sim.dispatch_latency_s")
        mean_latency = latency.mean if latency is not None else 0.0
    wall = max(wall, 1e-12)
    return {
        "scenario_wall_s": wall,
        "scenario_jobs_per_sec": tier.scenario_jobs / wall,
        "scenario_events_per_sec": events / wall,
        "scenario_dispatch_latency_mean_s": mean_latency,
    }


def bench_faults(tier: BenchTier) -> dict:
    """The scenario simulation again, under fault injection.

    Measures the fully-loaded dependability path: node tracking on, failure
    and repair events interleaved with the workload, killed jobs recovered
    from checkpoints.  The ``faults_*`` counts are workload invariants of
    the (seed, config) pair — they change only when fault semantics change,
    so they double as a cheap regression canary in BENCH comparisons.
    """
    config = ExperimentConfig(
        n_jobs=tier.scenario_jobs, total_procs=tier.scenario_procs, seed=tier.seed
    ).with_values(
        fault_mtbf=tier.fault_mtbf,
        fault_mttr=tier.fault_mttr,
        fault_recovery=tier.fault_recovery,
    )
    with capture() as perf:
        t0 = time.perf_counter()
        run_single(config, tier.scenario_policy, tier.scenario_model)
        wall = time.perf_counter() - t0
        counters = dict(perf.counters)
    wall = max(wall, 1e-12)
    return {
        "faulty_scenario_wall_s": wall,
        "faulty_scenario_jobs_per_sec": tier.scenario_jobs / wall,
        "faults_injected": counters.get("faults.injected", 0),
        "faults_jobs_killed": counters.get("faults.jobs_killed", 0),
        "faults_checkpoint_restores": counters.get("faults.checkpoint_restores", 0),
    }


def bench_fault_correlated(tier: BenchTier) -> dict:
    """The fault scenario again, with rack outages and cascades on top.

    Exercises the fault-domain subsystem end to end: the per-node process
    of :func:`bench_faults` plus whole-rack outages
    (``fault_domain_mtbf``) and probabilistic cascades
    (``fault_cascade_prob``), so the wall-clock delta against the plain
    fault run prices correlation itself.  The ``faults_domain_outages``
    and ``faults_cascade_propagations`` counts are (seed, config)
    invariants — a semantic-drift canary exactly like ``faults_injected``.
    """
    config = ExperimentConfig(
        n_jobs=tier.scenario_jobs, total_procs=tier.scenario_procs, seed=tier.seed
    ).with_values(
        fault_mtbf=tier.fault_mtbf,
        fault_mttr=tier.fault_mttr,
        fault_recovery=tier.fault_recovery,
        fault_domain_size=tier.fault_domain_size,
        fault_domain_mtbf=tier.fault_domain_mtbf,
        fault_cascade_prob=tier.fault_cascade_prob,
    )
    with capture() as perf:
        t0 = time.perf_counter()
        run_single(config, tier.scenario_policy, tier.scenario_model)
        wall = time.perf_counter() - t0
        counters = dict(perf.counters)
    wall = max(wall, 1e-12)
    return {
        "correlated_scenario_wall_s": wall,
        "correlated_scenario_jobs_per_sec": tier.scenario_jobs / wall,
        "faults_domain_outages": counters.get("faults.domain_outages", 0),
        "faults_domain_nodes_down": counters.get("faults.domain_nodes_down", 0),
        "faults_cascade_propagations": counters.get(
            "faults.cascade_propagations", 0
        ),
    }


def bench_market(tier: BenchTier) -> dict:
    """Population-scale market run on the vectorized cohort backend.

    The headline metric is ``market_user_events_per_sec`` — softmax
    choices plus applied satisfaction outcomes per wall-second — the rate
    the cohort refactor exists to maximise (target: ≥10⁵ at the full
    tier's 10⁶ users).  The final-share canary is deterministic for the
    (tier, seed) pair, so BENCH comparisons catch semantic drift in the
    market as well as slowdowns.
    """
    specs = [
        SyntheticSpec("risky", capacity=96.0, admission="greedy",
                      mtbf=86_400.0, mttr=3_600.0),
        SyntheticSpec("steady", capacity=96.0, admission="deadline"),
    ]
    market = Marketplace(specs, n_users=tier.market_users, seed=tier.seed)
    with capture() as perf:
        t0 = time.perf_counter()
        market.run(market_job_stream(tier.market_jobs, seed=tier.seed))
        wall = time.perf_counter() - t0
        counters = dict(perf.counters)
    wall = max(wall, 1e-12)
    user_events = (
        counters.get("market.user_choices", 0) + counters.get("market.outcomes", 0)
    )
    return {
        "market_wall_s": wall,
        "market_jobs_per_sec": tier.market_jobs / wall,
        "market_user_events_per_sec": user_events / wall,
        "market_risky_final_share": market.final_share("risky"),
    }


def bench_grid(tier: BenchTier) -> dict:
    """Reduced Table VI grid: serial vs process-pool vs warm run store.

    The store tier runs the same grid twice against one cache directory —
    a cold pass that simulates and checkpoints everything, then a warm
    pass from a fresh process-level store that only replays the disk
    cache.  The warm/cold ratio is the resume speedup a rerun of an
    interrupted (or repeated) grid enjoys.
    """
    scenarios = [scenario_by_name(name) for name in tier.grid_scenarios]
    config = ExperimentConfig(
        n_jobs=tier.grid_jobs, total_procs=tier.grid_procs, seed=tier.seed
    )
    serial_cache = RunStore()
    t0 = time.perf_counter()
    run_grid(tier.grid_policies, tier.grid_model, config, "A", scenarios, serial_cache)
    serial_wall = max(time.perf_counter() - t0, 1e-12)

    parallel_cache = RunStore()
    t0 = time.perf_counter()
    run_grid(
        tier.grid_policies, tier.grid_model, config, "A", scenarios,
        cache=parallel_cache, n_workers=tier.grid_workers,
    )
    parallel_wall = max(time.perf_counter() - t0, 1e-12)

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        cold_store = RunStore(tmp)
        t0 = time.perf_counter()
        run_grid(tier.grid_policies, tier.grid_model, config, "A", scenarios,
                 cold_store)
        store_cold_wall = max(time.perf_counter() - t0, 1e-12)
        warm_store = RunStore(tmp)  # fresh memory layer, warm disk layer
        t0 = time.perf_counter()
        run_grid(tier.grid_policies, tier.grid_model, config, "A", scenarios,
                 warm_store)
        store_warm_wall = max(time.perf_counter() - t0, 1e-12)
    return {
        "grid_serial_wall_s": serial_wall,
        "grid_parallel_wall_s": parallel_wall,
        "grid_speedup": serial_wall / parallel_wall,
        "grid_sims_per_sec": serial_cache.misses / serial_wall,
        "grid_unique_simulations": serial_cache.misses,
        "grid_store_cold_wall_s": store_cold_wall,
        "grid_store_warm_wall_s": store_warm_wall,
        "grid_warm_speedup": store_cold_wall / store_warm_wall,
        "grid_warm_store_hits": warm_store.hits,
        "grid_warm_store_misses": warm_store.misses,
    }


def bench_farm(tier: BenchTier) -> dict:
    """The work-stealing farm vs a direct ``execute_plan`` of the same units.

    One in-process worker drains a single-scenario job end to end
    (explode → claim/lease/heartbeat per unit → done markers → store
    merge → assembly), timed against the plain supervisor executing the
    identical items into one store.  ``farm_overhead_x`` is the
    wall-clock ratio — informational by design (no directional suffix):
    the farm's fixed per-unit costs are amortised by real grid runs, and
    a quick-tier ratio is too noisy to gate CI on.
    """
    from repro.experiments.pipeline import execute_plan
    from repro.farm import Coordinator, Farm, WorkerAgent, plan_from_args

    config = ExperimentConfig(
        n_jobs=tier.grid_jobs, total_procs=tier.grid_procs, seed=tier.seed
    )
    plan = plan_from_args(
        list(tier.grid_policies), tier.grid_model, config, "A",
        scenarios=tuple(tier.grid_scenarios[:1]),
    )
    units = plan.unique_units()
    items = [unit for unit, _ in units]

    with tempfile.TemporaryDirectory(prefix="repro-bench-farm-") as tmp:
        direct_store = RunStore(Path(tmp) / "direct")
        t0 = time.perf_counter()
        execute_plan(items, direct_store, execution=plan.execution_policy())
        direct_wall = max(time.perf_counter() - t0, 1e-12)

        farm = Farm(Path(tmp) / "farm")
        t0 = time.perf_counter()
        job_id = farm.create_job(plan)
        WorkerAgent(farm, worker_id="bench").run(drain=True)
        Coordinator(farm, poll_interval=0.01).drive(job_id, timeout=600.0)
        farm_wall = max(time.perf_counter() - t0, 1e-12)
    return {
        "farm_units": len(units),
        "farm_direct_runs_per_sec": len(units) / direct_wall,
        "farm_runs_per_sec": len(units) / farm_wall,
        "farm_overhead_x": farm_wall / direct_wall,
    }


def _sim_workload(tier: BenchTier) -> dict:
    return {
        "engine_events": tier.engine_events,
        "engine_chains": tier.engine_chains,
        "engine_repeats": tier.engine_repeats,
        "scenario_jobs": tier.scenario_jobs,
        "scenario_procs": tier.scenario_procs,
        "scenario_policy": tier.scenario_policy,
        "scenario_model": tier.scenario_model,
        "fault_mtbf": tier.fault_mtbf,
        "fault_mttr": tier.fault_mttr,
        "fault_recovery": tier.fault_recovery,
        "fault_domain_size": tier.fault_domain_size,
        "fault_domain_mtbf": tier.fault_domain_mtbf,
        "fault_cascade_prob": tier.fault_cascade_prob,
        "market_users": tier.market_users,
        "market_jobs": tier.market_jobs,
        "seed": tier.seed,
    }


def _grid_workload(tier: BenchTier) -> dict:
    return {
        "n_jobs": tier.grid_jobs,
        "total_procs": tier.grid_procs,
        "scenarios": list(tier.grid_scenarios),
        "policies": list(tier.grid_policies),
        "model": tier.grid_model,
        "n_workers": tier.grid_workers,
        "farm_scenarios": list(tier.grid_scenarios[:1]),
        "seed": tier.seed,
    }


def write_bench(path: Union[str, Path], suite: str, tier: BenchTier,
                workload: dict, metrics: dict) -> Path:
    """Write one machine-readable BENCH payload."""
    path = Path(path)
    payload = {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "tier": tier.name,
        "workload": workload,
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_suite(
    tier: BenchTier = QUICK,
    output_dir: Union[str, Path] = ".",
    only: Optional[str] = None,
    echo: Callable[[str], None] = print,
) -> dict[str, Path]:
    """Run the selected suites and write BENCH_*.json files.

    ``only`` restricts to ``"sim"`` (engine + scenario) or ``"grid"``;
    the default runs both.  Returns the paths written keyed by suite.
    """
    from repro.experiments.report import format_table

    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    if only in (None, "sim"):
        metrics = bench_engine(tier)
        metrics.update(bench_scenario(tier))
        metrics.update(bench_faults(tier))
        metrics.update(bench_fault_correlated(tier))
        metrics.update(bench_market(tier))
        path = write_bench(out / "BENCH_sim.json", "sim", tier, _sim_workload(tier), metrics)
        written["sim"] = path
        echo(format_table(
            [{"metric": k, "value": v} for k, v in sorted(metrics.items())],
            title=f"sim suite ({tier.name}) → {path}",
        ))
    if only in (None, "grid"):
        metrics = bench_grid(tier)
        metrics.update(bench_farm(tier))
        path = write_bench(out / "BENCH_grid.json", "grid", tier, _grid_workload(tier), metrics)
        written["grid"] = path
        echo(format_table(
            [{"metric": k, "value": v} for k, v in sorted(metrics.items())],
            title=f"grid suite ({tier.name}) → {path}",
        ))
    return written
