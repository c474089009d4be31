"""Unit tests for the multiprocessing grid runner."""

import pytest

from repro.core.objectives import Objective
from repro.experiments.pipeline import default_workers
from repro.experiments.runner import run_grid
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

SMALL = ExperimentConfig(n_jobs=30, total_procs=32)
SCENARIOS = [scenario_by_name("job mix"), scenario_by_name("workload")]
POLICIES = ["FCFS-BF", "Libra"]


def test_default_workers_positive():
    assert default_workers() >= 1


def test_single_worker_falls_back_to_serial():
    a = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=1)
    b = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS)
    assert a.separate == b.separate


@pytest.mark.slow
def test_parallel_matches_serial_exactly():
    serial = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS)
    parallel = run_grid(
        POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=2
    )
    assert parallel.policies == serial.policies
    assert parallel.scenarios == serial.scenarios
    for objective in Objective:
        for policy in POLICIES:
            for scenario in parallel.scenarios:
                p = parallel.separate[objective][policy][scenario]
                s = serial.separate[objective][policy][scenario]
                assert p.performance == pytest.approx(s.performance, abs=1e-12)
                assert p.volatility == pytest.approx(s.volatility, abs=1e-12)


def test_serial_and_single_worker_cache_statistics_match():
    serial_cache = RunStore()
    run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, serial_cache)
    parallel_cache = RunStore()
    run_grid(
        POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=1, cache=parallel_cache
    )
    assert (parallel_cache.hits, parallel_cache.misses) == (
        serial_cache.hits,
        serial_cache.misses,
    )
    assert len(parallel_cache) == len(serial_cache)


@pytest.mark.slow
def test_parallel_cache_statistics_match_serial():
    """The pool runner must report the same hit/miss accounting as the
    serial runner — on a cold cache and on a fully warm one."""
    serial_cache = RunStore()
    run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, serial_cache)
    parallel_cache = RunStore()
    run_grid(
        POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=2, cache=parallel_cache
    )
    assert (parallel_cache.hits, parallel_cache.misses) == (
        serial_cache.hits,
        serial_cache.misses,
    )
    assert len(parallel_cache) == len(serial_cache)
    # Warm re-run: both paths see pure hits, zero new misses.
    run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, serial_cache)
    run_grid(
        POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=2, cache=parallel_cache
    )
    assert (parallel_cache.hits, parallel_cache.misses) == (
        serial_cache.hits,
        serial_cache.misses,
    )


@pytest.mark.slow
def test_parallel_populates_shared_cache():
    cache = RunStore()
    run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=2, cache=cache)
    before = len(cache)
    assert before > 0
    # A second call over the same grid does zero new simulations.
    run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, n_workers=2, cache=cache)
    assert len(cache) == before
