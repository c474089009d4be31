"""Unit tests for grid comparison (Set A vs Set B impact)."""

import pytest

from repro.core.objectives import OBJECTIVES, Objective
from repro.core.separate import SeparateRisk
from repro.experiments.compare import (
    comparison_rows,
    most_affected_policy,
    performance_deltas,
    ranking_flips,
)
from repro.experiments.runner import GridAnalysis


def make_grid(set_name, values):
    """values: {policy: {objective: performance}} (volatility fixed)."""
    policies = tuple(values)
    scenarios = ("s1", "s2")
    separate = {
        objective: {
            policy: {s: SeparateRisk(values[policy][objective], 0.1) for s in scenarios}
            for policy in policies
        }
        for objective in Objective
    }
    return GridAnalysis(
        model="bid", set_name=set_name, policies=policies,
        scenarios=scenarios, separate=separate,
    )


def grids():
    base = {
        "steady": {o: 0.8 for o in Objective},
        "fragile": {o: 0.9 for o in Objective},
    }
    degraded = {
        "steady": {o: 0.78 for o in Objective},
        "fragile": {o: 0.5 for o in Objective},
    }
    return make_grid("A", base), make_grid("B", degraded)


def test_deltas_shape_and_ordering():
    a, b = grids()
    deltas = performance_deltas(a, b)
    assert len(deltas) == len(OBJECTIVES) * 2
    changes = [d.change for d in deltas]
    assert changes == sorted(changes)
    assert deltas[0].policy == "fragile"
    assert deltas[0].change == pytest.approx(-0.4)


def test_ranking_flips_detected():
    a, b = grids()
    flips = ranking_flips(a, b)
    # fragile leads in A (0.9), steady leads in B (0.78 vs 0.5).
    assert flips
    assert flips[0].position == 1
    assert flips[0].policy_a == "fragile"
    assert flips[0].policy_b == "steady"


def test_no_flips_when_order_stable():
    a, _ = grids()
    assert ranking_flips(a, a) == []


def test_comparison_rows_and_top_filter():
    a, b = grids()
    rows = comparison_rows(a, b)
    assert rows[0]["policy"] == "fragile"
    assert rows[0]["set_A"] == pytest.approx(0.9)
    assert rows[0]["set_B"] == pytest.approx(0.5)
    top = comparison_rows(a, b, top=4)
    assert len(top) == 4
    assert all(r["policy"] == "fragile" for r in top)


def test_most_affected_policy():
    a, b = grids()
    assert most_affected_policy(a, b) == "fragile"


def test_incompatible_grids_rejected():
    a, _ = grids()
    other = make_grid("B", {"other": {o: 0.5 for o in Objective}})
    with pytest.raises(ValueError):
        performance_deltas(a, other)


def test_on_real_grids():
    from repro.experiments.runner import run_grid
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

    cache = RunStore()
    base = ExperimentConfig(n_jobs=40, total_procs=32)
    scen = [scenario_by_name("job mix")]
    a = run_grid(["FCFS-BF", "Libra"], "commodity", base, "A", scen, cache)
    b = run_grid(["FCFS-BF", "Libra"], "commodity", base, "B", scen, cache)
    deltas = performance_deltas(a, b)
    assert {d.policy for d in deltas} == {"FCFS-BF", "Libra"}
    # Inaccuracy hurts the admission-control policy at least as much as
    # the queue-based one (the paper's Set B story).
    assert most_affected_policy(a, b) in ("Libra", "FCFS-BF")
