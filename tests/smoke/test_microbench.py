"""The engine microbench and its perf budget, plus the grid and farm report.

The perf registry's hooks must cost the raw engine < 5 % with the registry
disabled and < 10 % with it enabled.  Both are measured against
:class:`UninstrumentedSimulator`, the engine with the hooks pinned off,
on a fixed cascade of self-rescheduling event chains.  The estimate is
the median, over ``ROUNDS`` short rounds, of each round's paired
overhead; within a round the three variants run in rotating order, so
drift of a shared CPU's clock hits each of them alike.

The grid's serial-vs-pool speedup and the farm's overhead over a direct
``execute_plan`` are printed, not gated (``pytest -m smoke -rP`` shows
them); their unit counts and the warm store's hits are asserted.

These time the machine they run on, so they are opt-in: run them with
``pytest -m smoke`` (tier-1 does not collect ``tests/smoke/``).
"""

import statistics
import time

import pytest

from repro.perf import PERF, PerfRegistry
from repro.sim.engine import Simulator

pytestmark = pytest.mark.smoke

#: rounds of the overhead estimate, and the cascade each variant drains.
ROUNDS = 41
EVENTS = 20_000
CHAINS = 32
#: overhead budgets, percent of the uninstrumented engine's throughput.
DISABLED_BUDGET = 5.0
ENABLED_BUDGET = 10.0


class UninstrumentedSimulator(Simulator):
    """The engine with instrumentation pinned off.

    A private, permanently disabled registry replaces the global ``PERF``
    alias, so this variant never samples latency or flushes counters
    whatever the global switch says.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._perf = PerfRegistry()  # always disabled, never the global


class SlowScheduleSimulator(Simulator):
    """The disabled engine plus a deliberate extra cost per scheduled event."""

    def schedule(self, *args, **kwargs):
        sum(range(40))
        return super().schedule(*args, **kwargs)


def _noop() -> None:
    pass


def run_cascade(sim: Simulator, n_events: int = EVENTS, chains: int = CHAINS) -> float:
    """Drive a deterministic event cascade; returns wall-clock seconds.

    Each chain event reschedules itself with an arithmetic (seed-free)
    delay pattern; every fourth step also schedules a victim event and
    cancels it, so the cancelled-event churn path is part of the loop.
    """
    remaining = [n_events]

    def tick(chain: int, step: int) -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        delay = 1.0 + ((chain * 31 + step * 7) % 11)
        sim.schedule(delay, tick, chain, step + 1)
        if step % 4 == 0:
            sim.schedule(delay * 2.0, _noop).cancel()

    for chain in range(chains):
        sim.schedule(1.0 + (chain % 7), tick, chain, 0)
    t0 = time.perf_counter()
    sim.run()
    return time.perf_counter() - t0


def median_overheads(variants) -> dict:
    """Median per-round overhead (%) of each variant over the first.

    ``variants`` is a sequence of ``(name, simulator class, registry
    enabled)``; the first is the baseline.  A variant's overhead in one
    round is ``100 * (1 - baseline wall / its wall)``, its throughput
    shortfall against the baseline in that round.
    """
    names = [name for name, _, _ in variants]
    samples = {name: [] for name in names[1:]}
    prev = PERF.enabled
    try:
        for r in range(ROUNDS):
            walls = {}
            for k in range(len(variants)):
                name, make, enabled = variants[(r + k) % len(variants)]
                PERF.enabled = enabled
                walls[name] = run_cascade(make())
            for name in samples:
                samples[name].append(100.0 * (1.0 - walls[names[0]] / walls[name]))
    finally:
        PERF.enabled = prev
        PERF.reset()
    return {name: statistics.median(values) for name, values in samples.items()}


def test_uninstrumented_simulator_matches_engine_semantics():
    fired_a, fired_b = [], []
    for sim, out in ((Simulator(), fired_a), (UninstrumentedSimulator(), fired_b)):
        sim.schedule(2.0, out.append, "late")
        h = sim.schedule(1.5, out.append, "cancelled")
        sim.schedule(1.0, out.append, "early")
        h.cancel()
        sim.run()
    assert fired_a == fired_b == ["early", "late"]


def test_cascade_drains_the_same_events_on_every_variant():
    executed = set()
    for make in (UninstrumentedSimulator, Simulator, SlowScheduleSimulator):
        sim = make()
        run_cascade(sim, 2000, 8)
        executed.add(sim.events_executed)
    assert len(executed) == 1


def test_perf_hooks_stay_within_budget():
    overheads = median_overheads((
        ("baseline", UninstrumentedSimulator, False),
        ("disabled", Simulator, False),
        ("enabled", Simulator, True),
    ))
    print(f"perf overhead, median of {ROUNDS} rounds: "
          f"disabled {overheads['disabled']:+.1f} %, "
          f"enabled {overheads['enabled']:+.1f} %")
    assert overheads["disabled"] < DISABLED_BUDGET, overheads
    assert overheads["enabled"] < ENABLED_BUDGET, overheads


def test_budget_catches_an_extra_per_event_cost():
    overheads = median_overheads((
        ("baseline", UninstrumentedSimulator, False),
        ("slow", SlowScheduleSimulator, False),
    ))
    print(f"extra per-event cost: {overheads['slow']:+.1f} %")
    assert overheads["slow"] >= DISABLED_BUDGET, overheads


def _tiny_grid():
    from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

    config = ExperimentConfig(n_jobs=8, total_procs=16, seed=0)
    return ["FCFS-BF"], "bid", config, "A", [scenario_by_name("job mix")]


def test_grid_serial_vs_pool_and_warm_store(tmp_path):
    from repro.experiments.runner import run_grid
    from repro.experiments.runstore import RunStore

    policies, model, config, set_name, scenarios = _tiny_grid()
    serial = RunStore()
    t0 = time.perf_counter()
    run_grid(policies, model, config, set_name, scenarios, serial)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_grid(policies, model, config, set_name, scenarios, RunStore(), n_workers=2)
    pool_wall = time.perf_counter() - t0
    assert serial.misses == 6  # 1 scenario × 6 values × 1 policy

    t0 = time.perf_counter()
    run_grid(policies, model, config, set_name, scenarios, RunStore(tmp_path))
    cold_wall = time.perf_counter() - t0
    warm = RunStore(tmp_path)  # fresh memory layer, warm disk layer
    t0 = time.perf_counter()
    run_grid(policies, model, config, set_name, scenarios, warm)
    warm_wall = time.perf_counter() - t0
    # The warm pass re-reads every run from disk: no misses, all hits.
    assert warm.misses == 0
    assert warm.hits == 6
    print(f"grid: serial {serial_wall:.3f} s, pool of 2 {pool_wall:.3f} s "
          f"(speedup {serial_wall / pool_wall:.2f}x); store cold {cold_wall:.3f} s, "
          f"warm {warm_wall:.3f} s (speedup {cold_wall / warm_wall:.1f}x)")


def test_farm_overhead_over_a_direct_execute_plan(tmp_path):
    from repro.experiments.pipeline import execute_plan
    from repro.experiments.runstore import RunStore
    from repro.farm import Coordinator, Farm, WorkerAgent, plan_from_args

    policies, model, config, set_name, _ = _tiny_grid()
    plan = plan_from_args(policies, model, config, set_name, scenarios=("job mix",))
    units = plan.unique_units()
    assert len(units) == 6

    t0 = time.perf_counter()
    execute_plan([unit for unit, _ in units], RunStore(tmp_path / "direct"),
                 execution=plan.execution_policy())
    direct_wall = time.perf_counter() - t0
    farm = Farm(tmp_path / "farm")
    t0 = time.perf_counter()
    job_id = farm.create_job(plan)
    WorkerAgent(farm, worker_id="bench").run(drain=True)
    Coordinator(farm, poll_interval=0.01).drive(job_id, timeout=600.0)
    farm_wall = time.perf_counter() - t0
    assert farm.progress(job_id).done == len(units)
    print(f"farm: {len(units)} units, direct {direct_wall:.3f} s, farm "
          f"{farm_wall:.3f} s (overhead {farm_wall / direct_wall:.2f}x)")
