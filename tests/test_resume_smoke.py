"""Resume smoke: a warm run store must hit and be fast.

A grid executed into a run store and then re-executed from a fresh handle
on the same directory must be served entirely from the store, in under
half the cold wall time, and assemble into a grid.
"""

import time

from repro.experiments.pipeline import assemble_grid, execute_plan, grid_plan
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name


def test_warm_run_store_hits_and_is_fast(tmp_path):
    base = ExperimentConfig(n_jobs=30, total_procs=32)
    plan = grid_plan(["FCFS-BF", "Libra"], "bid", base, "A",
                     [scenario_by_name("job mix")])
    cache_dir = tmp_path

    t0 = time.perf_counter()
    cold = execute_plan(plan, RunStore(cache_dir))
    cold_wall = time.perf_counter() - t0
    assert cold.executed > 0, cold

    warm_store = RunStore(cache_dir)
    t0 = time.perf_counter()
    warm = execute_plan(plan, warm_store)
    warm_wall = time.perf_counter() - t0

    assert warm.hits >= 1, warm
    assert warm.misses == 0, warm
    assert warm_wall < 0.5 * cold_wall, (
        f"warm {warm_wall:.3f}s not <50% of cold {cold_wall:.3f}s"
    )
    grid = assemble_grid(warm_store, ["FCFS-BF", "Libra"], "bid", base,
                         "A", [scenario_by_name("job mix")])
    print(f"resume smoke: cold {cold_wall:.3f}s → warm {warm_wall:.3f}s "
          f"({cold_wall / warm_wall:.0f}x), {warm.hits} store hits, "
          f"grid {grid.model}/{grid.set_name} assembled")
