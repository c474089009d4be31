"""Unit tests for the experiment runner (workload building, caching,
scenario reduction)."""

import gc

import pytest

from faultsweep_reference import run_scenario
from repro.cluster.spaceshared import SpaceSharedCluster
from repro.cluster.timeshared import TimeSharedCluster
from repro.core.objectives import Objective
from repro.experiments.runner import (
    GridAnalysis,
    build_workload,
    run_grid,
    run_single,
)
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

SMALL = ExperimentConfig(n_jobs=40, total_procs=32)


def test_build_workload_is_deterministic():
    a = build_workload(SMALL)
    b = build_workload(SMALL)
    assert [(j.submit_time, j.runtime, j.deadline, j.budget) for j in a] == [
        (j.submit_time, j.runtime, j.deadline, j.budget) for j in b
    ]


def test_arrival_factor_scales_interarrivals():
    fast = build_workload(SMALL.with_values(arrival_delay_factor=0.1))
    slow = build_workload(SMALL.with_values(arrival_delay_factor=1.0))
    assert fast[-1].submit_time == pytest.approx(0.1 * slow[-1].submit_time)
    # Same trace otherwise.
    assert [j.runtime for j in fast] == [j.runtime for j in slow]


def test_invalid_arrival_factor():
    with pytest.raises(ValueError):
        build_workload(SMALL.with_values(arrival_delay_factor=0.0))


def test_build_workload_returns_freshly_owned_jobs():
    # The builder memoises the expensive base trace, so the jobs it hands
    # out must be clones: mutating one workload (as the simulation engine
    # does) must never bleed into a later build from the same trace.
    first = build_workload(SMALL)
    snapshot = [(j.submit_time, j.runtime, j.estimate, j.deadline) for j in first]
    for job in first:
        job.submit_time = -1.0
        job.estimate = 0.0
    second = build_workload(SMALL)
    assert [(j.submit_time, j.runtime, j.estimate, j.deadline) for j in second] == snapshot
    assert all(a is not b for a, b in zip(first, second))


def test_build_workload_variants_do_not_cross_contaminate():
    # Scaled arrivals and perturbed estimates are derived per call; the
    # shared trace must keep its original values throughout.
    exact = build_workload(SMALL.with_values(inaccuracy_pct=0.0))
    build_workload(SMALL.with_values(arrival_delay_factor=0.1, inaccuracy_pct=100.0))
    again = build_workload(SMALL.with_values(inaccuracy_pct=0.0))
    assert [j.submit_time for j in again] == [j.submit_time for j in exact]
    assert [j.estimate for j in again] == [j.estimate for j in exact]


@pytest.mark.parametrize("config", [
    SMALL,
    SMALL.with_values(arrival_delay_factor=1.0, inaccuracy_pct=40.0),
])
def test_build_workload_fields_are_builtin_types(config):
    # The job list is built from numpy columns; every value must still be
    # the builtin a per-element float() / int() conversion gives.
    floats = ("submit_time", "runtime", "estimate", "trace_estimate",
              "deadline", "budget", "penalty_rate")
    jobs = build_workload(config)
    assert len(jobs) == config.n_jobs
    for job in jobs:
        for name in floats:
            assert type(getattr(job, name)) is float, name
        for value in (job.job_id, job.procs, job.extra["user_id"]):
            assert type(value) is int


def test_inaccuracy_config_controls_estimates():
    exact = build_workload(SMALL.with_values(inaccuracy_pct=0.0))
    trace = build_workload(SMALL.with_values(inaccuracy_pct=100.0))
    assert all(j.estimate == pytest.approx(j.runtime) for j in exact)
    assert any(j.estimate != j.runtime for j in trace)


def test_run_single_returns_objectives():
    objs = run_single(SMALL, "FCFS-BF", "commodity")
    assert 0.0 <= objs.sla <= 100.0
    assert 0.0 <= objs.reliability <= 100.0
    assert objs.wait >= 0.0


def live_clusters() -> int:
    return sum(isinstance(o, (TimeSharedCluster, SpaceSharedCluster))
               for o in gc.get_objects())


@pytest.mark.parametrize("config", [
    SMALL,
    SMALL.with_values(fault_mtbf=20_000.0, fault_mttr=600.0,
                      fault_domain_size=4, fault_domain_mtbf=25_000.0),
], ids=["fault-free", "faults"])
def test_finished_run_is_freed_without_a_cyclic_collection(config):
    # No reference cycle may outlive a run: with the cyclic collector off,
    # reference counting alone must free every cluster run_single built.
    gc.collect()
    before = live_clusters()
    gc.disable()
    try:
        for policy in ("Libra", "LibraRiskD", "Libra+$", "FCFS-BF", "EDF-BF", "FirstReward"):
            run_single(config, policy, "bid")
            assert live_clusters() == before, policy
    finally:
        gc.enable()


def test_run_scenario_shape():
    scenario = scenario_by_name("job mix")
    result = run_scenario(scenario, ["FCFS-BF", "EDF-BF"], "bid", SMALL)
    assert set(result.keys()) == set(Objective)
    for objective in Objective:
        assert set(result[objective].keys()) == {"FCFS-BF", "EDF-BF"}
        for risk in result[objective].values():
            assert 0.0 <= risk.performance <= 1.0
            assert risk.volatility >= 0.0


def test_run_grid_and_plots():
    scenarios = [scenario_by_name("job mix"), scenario_by_name("workload")]
    grid = run_grid(["FCFS-BF", "EDF-BF"], "bid", SMALL, "A", scenarios)
    assert isinstance(grid, GridAnalysis)
    assert grid.scenarios == ("job mix", "workload")
    plot = grid.separate_plot(Objective.SLA)
    assert set(plot.policies()) == {"FCFS-BF", "EDF-BF"}
    assert len(plot.series["FCFS-BF"].points) == 2  # one point per scenario
    combined = grid.integrated_plot([Objective.SLA, Objective.WAIT])
    assert len(combined.series["EDF-BF"].points) == 2


def test_grid_cache_reuses_default_config():
    scenarios = [scenario_by_name("job mix"), scenario_by_name("workload")]
    cache = RunStore()
    run_grid(["FCFS-BF"], "bid", SMALL, "A", scenarios, cache)
    # Default config (job mix=20, workload=0.25) appears in both scenarios.
    assert cache.hits >= 1
