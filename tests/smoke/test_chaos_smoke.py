"""The chaos smokes: the execution supervisor's survival contracts, end to end.

A SIGKILLed worker never loses a grid, exhausted retries degrade into a
journaled, gap-marked report instead of a crash, and a whole fault domain
going down mid-grid recovers in both chaos shapes.  Each test is one step
of the ``chaos-smoke`` CI job, which runs it under the same step name and
``timeout``; the bodies are the scripts those steps used to run inline.

They fork worker pools and SIGKILL workers, so they are opt-in: run them
with ``pytest -m smoke`` (tier-1 does not collect ``tests/smoke/``).
"""

import pytest

pytestmark = pytest.mark.smoke


def mkdir(path):
    """Make ``path`` (under the test's ``tmp_path``) and return it as a str."""
    path.mkdir()
    return str(path)


def test_grid_survives_a_sigkilled_worker(tmp_path):
    """Grid survives a SIGKILLed worker."""
    import os

    from repro.experiments.pipeline import (
        ExecutionPolicy, assemble_grid, execute_plan, grid_plan,
    )
    from repro.experiments.runner import run_grid
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

    base = ExperimentConfig(n_jobs=20, total_procs=16)
    scenarios = [scenario_by_name("job mix")]
    policies = ["FCFS-BF", "Libra"]
    reference = run_grid(policies, "bid", base, "A", scenarios).to_dict()

    chaos_dir = mkdir(tmp_path / "chaos")
    os.environ["REPRO_CHAOS_DIR"] = chaos_dir
    os.environ["REPRO_CHAOS_KILL"] = "2"
    plan = grid_plan(policies, "bid", base, "A", scenarios)
    store = RunStore(mkdir(tmp_path / "store"))
    execution = execute_plan(
        plan, store, n_workers=2,
        execution=ExecutionPolicy(max_retries=3, backoff_base=0.01,
                                  poll_interval=0.05),
    )
    del os.environ["REPRO_CHAOS_DIR"], os.environ["REPRO_CHAOS_KILL"]

    killed = [n for n in os.listdir(chaos_dir) if n.endswith(".killed")]
    assert len(killed) == 2, f"chaos never fired: {killed}"
    assert execution.complete, execution
    grid = assemble_grid(store, policies, "bid", base, "A", scenarios)
    assert grid.to_dict() == reference, "recovered grid differs"
    print(f"chaos smoke: {len(killed)} workers SIGKILLed, "
          f"{execution.retries} resubmissions, grid bit-identical")


def test_exhausted_retries_degrade_with_journal_and_gap_markers(tmp_path):
    """Exhausted retries degrade with journal and gap markers."""
    import json

    from repro.experiments.pipeline import (
        ExecutionPolicy, assemble_grid, execute_plan, grid_plan,
    )
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

    base = ExperimentConfig(n_jobs=20, total_procs=16)
    scenarios = [scenario_by_name("job mix")]
    policies = ["FCFS-BF", "Libra"]
    cache_dir = mkdir(tmp_path / "degrade")
    store = RunStore(cache_dir)
    plan = grid_plan(policies, "bid", base, "A", scenarios)
    execution = execute_plan(
        plan, store,
        execution=ExecutionPolicy(max_sim_events=10, max_retries=1,
                                  backoff_base=0.01, on_error="degrade"),
    )
    assert execution.failed, "forced timeouts never failed"

    journal = open(f"{cache_dir}/failures.jsonl").read().splitlines()
    assert len(journal) >= len(execution.failed), journal
    grid = assemble_grid(store, policies, "bid", base, "A", scenarios,
                         on_missing="degrade")
    assert grid.degraded and len(grid.gaps) == len(execution.failed)
    doc = grid.to_dict()
    json.dumps(doc)  # strict JSON: gaps serialise as null pairs
    assert doc["gaps"], doc.keys()
    print(f"degrade smoke: {len(grid.gaps)} gap cells, "
          f"{len(journal)} journal entries, report renders")


def test_correlated_domain_outage_mid_grid_degrades_and_recovers(tmp_path):
    """Correlated domain outage mid-grid degrades and recovers."""
    import os

    from repro.experiments.pipeline import (
        ExecutionPolicy, assemble_grid, execute_plan, grid_plan,
    )
    from repro.experiments.runner import run_grid
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

    base = ExperimentConfig(n_jobs=20, total_procs=16).with_values(
        fault_mtbf=60_000.0, fault_mttr=600.0,
        fault_domain_size=4, fault_domain_mtbf=25_000.0,
        fault_cascade_prob=0.5,
    )
    scenarios = [scenario_by_name("job mix")]
    policies = ["FCFS-BF", "Libra"]
    reference = run_grid(policies, "bid", base, "A", scenarios).to_dict()
    plan = grid_plan(policies, "bid", base, "A", scenarios)

    # Shape 1: a worker dies holding a whole batch of correlated-fault
    # runs.  The supervisor splits it uncharged and the grid recovers.
    chaos_dir = mkdir(tmp_path / "chaos-batch")
    os.environ["REPRO_CHAOS_DIR"] = chaos_dir
    os.environ["REPRO_CHAOS_BATCH"] = "1"
    store = RunStore(mkdir(tmp_path / "store-batch"))
    execution = execute_plan(
        plan, store, n_workers=2,
        execution=ExecutionPolicy(max_retries=0, on_error="degrade",
                                  backoff_base=0.01, poll_interval=0.05),
    )
    del os.environ["REPRO_CHAOS_DIR"], os.environ["REPRO_CHAOS_BATCH"]
    batchkilled = [n for n in os.listdir(chaos_dir)
                   if n.endswith(".batchkilled")]
    assert len(batchkilled) == 1, f"batch chaos never fired: {batchkilled}"
    assert execution.complete and not execution.failed, execution
    grid = assemble_grid(store, policies, "bid", base, "A", scenarios)
    assert grid.to_dict() == reference, "recovered grid differs"

    # Shape 2: a charged singleton kill with zero retries is a real
    # gap — journaled, surfaced by degrade-mode assembly, and filled
    # bit-identically by a clean rerun on the same store.
    chaos_dir = mkdir(tmp_path / "chaos-gap")
    os.environ["REPRO_CHAOS_DIR"] = chaos_dir
    os.environ["REPRO_CHAOS_KILL"] = "1"
    cache_dir = mkdir(tmp_path / "store-gap")
    store = RunStore(cache_dir)
    execution = execute_plan(
        plan, store, n_workers=2,
        execution=ExecutionPolicy(max_retries=0, on_error="degrade",
                                  batch_size=1, backoff_base=0.01,
                                  poll_interval=0.05),
    )
    del os.environ["REPRO_CHAOS_DIR"], os.environ["REPRO_CHAOS_KILL"]
    assert execution.failed, "singleton chaos kill never charged a gap"
    journal = open(f"{cache_dir}/failures.jsonl").read().splitlines()
    assert len(journal) >= len(execution.failed), journal
    grid = assemble_grid(store, policies, "bid", base, "A", scenarios,
                         on_missing="degrade")
    assert grid.degraded and len(grid.gaps) == len(execution.failed)
    rerun = run_grid(policies, "bid", base, "A", scenarios,
                     RunStore(cache_dir))
    assert rerun.to_dict() == reference, "gap-filling rerun differs"
    print(f"correlated chaos smoke: 1 batch split uncharged, "
          f"{len(grid.gaps)} journaled gap(s), rerun bit-identical")
