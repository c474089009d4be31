"""Tests for the unified plan → execute → assemble pipeline, including the
interrupted-grid resume semantics the run store guarantees."""

import pytest

from repro import perf
from repro.experiments.pipeline import (
    assemble_grid,
    execute_plan,
    grid_plan,
)
from repro.experiments.runner import run_grid, run_single
from repro.experiments.runstore import RunKey, RunStore, StoreError
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

SMALL = ExperimentConfig(n_jobs=20, total_procs=16)
SCENARIOS = [scenario_by_name("job mix"), scenario_by_name("workload")]
POLICIES = ["FCFS-BF", "Libra"]


def unique_items(plan):
    seen, out = set(), []
    for key in plan:
        if key.digest not in seen:
            seen.add(key.digest)
            out.append(key)
    return out


# -- planning ------------------------------------------------------------------


def test_grid_plan_enumerates_every_access():
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    assert len(plan) == 2 * 6 * 2  # scenarios × values × policies
    # The default config appears in both scenarios → duplicates by content.
    assert len(unique_items(plan)) < len(plan)


def test_grid_plan_applies_estimate_set():
    plan = grid_plan(POLICIES, "bid", SMALL, "B", SCENARIOS)
    assert all(config.inaccuracy_pct == 100.0 for config, _, _ in plan)


# -- execution accounting ------------------------------------------------------


def test_execute_plan_accounting_matches_serial_semantics():
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    store = RunStore()
    execution = execute_plan(plan, store)
    assert execution.accesses == len(plan)
    assert execution.misses == len(unique_items(plan))
    assert execution.hits == execution.accesses - execution.misses
    assert execution.executed == execution.misses
    assert execution.complete
    assert (store.hits, store.misses) == (execution.hits, execution.misses)
    # Warm rerun: pure hits.
    warm = execute_plan(plan, store)
    assert (warm.hits, warm.misses, warm.executed) == (len(plan), 0, 0)


def test_execute_plan_serves_a_repeat_from_the_store():
    key = RunKey(SMALL, "FCFS-BF", "bid")
    store = RunStore()
    cold = execute_plan([key], store)
    warm = execute_plan([key], store)
    assert (cold.misses, cold.hits, warm.misses, warm.hits) == (1, 0, 0, 1)
    assert (store.misses, store.hits) == (1, 1)
    assert len(store) == 1
    assert store.lookup(key) == run_single(SMALL, "FCFS-BF", "bid")


def test_execute_plan_keys_distinguish_policy_and_model():
    keys = [
        RunKey(SMALL, "FCFS-BF", "bid"),
        RunKey(SMALL, "FCFS-BF", "commodity"),
        RunKey(SMALL, "EDF-BF", "bid"),
    ]
    store = RunStore()
    execution = execute_plan(keys + keys[:1], store)
    assert (execution.misses, execution.hits, execution.executed) == (3, 1, 3)
    assert (store.misses, store.hits) == (3, 1)
    assert len(store) == 3


def test_execute_plan_rejects_bad_shard():
    with pytest.raises(ValueError):
        execute_plan([], RunStore(), shard=(3, 3))
    with pytest.raises(ValueError):
        execute_plan([], RunStore(), shard=(-1, 2))


def test_sharded_execution_covers_the_grid_exactly_once(tmp_path):
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    n_shards = 3
    executed = 0
    for index in range(n_shards):
        store = RunStore(tmp_path)  # shards share the cache dir
        execution = execute_plan(plan, store, shard=(index, n_shards))
        executed += execution.executed
        if index < n_shards - 1:
            assert not execution.complete
    assert executed == len(unique_items(plan))
    # Every shard done → assembly from a fresh store matches the reference.
    grid = assemble_grid(RunStore(tmp_path), POLICIES, "bid", SMALL, "A", SCENARIOS)
    reference = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS)
    assert grid.to_dict() == reference.to_dict()


def test_assemble_refuses_incomplete_store():
    store = RunStore()
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    execute_plan(plan, store, shard=(0, 2))  # half the misses only
    with pytest.raises(StoreError, match="incomplete"):
        assemble_grid(store, POLICIES, "bid", SMALL, "A", SCENARIOS)


# -- resume semantics ----------------------------------------------------------


def _simulations_during(fn):
    """Run ``fn`` under the perf registry; returns (result, simulations)."""
    with perf.capture() as registry:
        result = fn()
        count = int(registry.counters.get("runner.simulations", 0))
    return result, count


def test_interrupted_grid_resumes_only_missing_keys_serial(tmp_path):
    reference = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS)
    reference_doc = reference.to_dict()
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    unique = unique_items(plan)

    # Simulate a mid-grid interrupt: only part of the plan ever executed.
    partial = RunStore(tmp_path)
    n_done = len(unique) // 2
    execute_plan(unique[:n_done], partial)
    assert partial.stats()["disk_runs"] == n_done

    # The rerun (a fresh process would build a fresh store) must simulate
    # exactly the missing keys and reproduce the reference bit for bit.
    resumed_store = RunStore(tmp_path)
    grid, simulated = _simulations_during(
        lambda: run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, resumed_store)
    )
    assert simulated == len(unique) - n_done
    assert grid.to_dict() == reference_doc


@pytest.mark.slow
def test_interrupted_grid_resumes_only_missing_keys_parallel(tmp_path):
    reference_doc = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS).to_dict()
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    unique = unique_items(plan)

    partial = RunStore(tmp_path)
    n_done = len(unique) // 2
    execute_plan(unique[:n_done], partial)

    resumed_store = RunStore(tmp_path)
    grid = run_grid(
        POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=2, cache=resumed_store
    )
    # Only the missing keys were dispatched…
    assert resumed_store.misses == len(unique) - n_done
    # …and the reassembled analysis is identical to the cold serial run.
    assert grid.to_dict() == reference_doc


def test_resume_tolerates_a_corrupted_checkpoint(tmp_path):
    store = RunStore(tmp_path)
    run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, store)
    reference_doc = assemble_grid(
        store, POLICIES, "bid", SMALL, "A", SCENARIOS
    ).to_dict()
    # Truncate one checkpoint file (as a crash mid-write never would, but a
    # full disk or manual edit could).
    victim = sorted((tmp_path / "runs").glob("??/*.json"))[0]
    victim.write_text(victim.read_text()[:25])
    resumed = RunStore(tmp_path)
    grid, simulated = _simulations_during(
        lambda: run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, resumed)
    )
    assert simulated == 1  # exactly the corrupted key re-simulated
    assert grid.to_dict() == reference_doc


# -- entry points share the pipeline ------------------------------------------


def test_replication_uses_shared_store(tmp_path):
    from repro.experiments.replication import run_replicated

    store = RunStore(tmp_path)
    first = run_replicated(
        POLICIES, "bid", SMALL, "A", SCENARIOS, seeds=(0, 1), cache=store
    )
    warm = RunStore(tmp_path)
    second, simulated = _simulations_during(
        lambda: run_replicated(
            POLICIES, "bid", SMALL, "A", SCENARIOS, seeds=(0, 1), cache=warm
        )
    )
    assert simulated == 0
    for a, b in zip(first.grids, second.grids):
        assert a.to_dict() == b.to_dict()


def test_tornado_uses_shared_store(tmp_path):
    from repro.experiments.sensitivity import tornado_analysis

    store = RunStore(tmp_path)
    first = tornado_analysis("FCFS-BF", "bid", SMALL, SCENARIOS, store)
    warm = RunStore(tmp_path)
    second, simulated = _simulations_during(
        lambda: tornado_analysis("FCFS-BF", "bid", SMALL, SCENARIOS, warm)
    )
    assert simulated == 0
    assert first == second
