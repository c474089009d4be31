"""Integration tests: full workload → policies → risk analysis.

These exercise the whole stack at a moderate scale and assert the paper's
*robust* qualitative findings — the ones §6 states categorically.  Seeds and
scales are fixed so the assertions are deterministic.
"""

import pytest

from repro.core.objectives import Objective
from repro.experiments.pipeline import execute_plan
from repro.experiments.runner import run_grid
from repro.experiments.runstore import RunKey, RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name

BASE = ExperimentConfig(n_jobs=250, total_procs=128)
CACHE = RunStore()


def objectives(policy, model, set_name="A", **over):
    key = RunKey(BASE.for_set(set_name).with_values(**over), policy, model)
    execute_plan([key], CACHE)
    return CACHE.lookup(key)


# -- §6.1 commodity market ----------------------------------------------------

def test_libra_family_has_ideal_wait():
    """Jobs are examined at submission: zero wait for SLA acceptance."""
    for policy in ("Libra", "Libra+$"):
        for set_name in ("A", "B"):
            assert objectives(policy, "commodity", set_name).wait == 0.0


def test_backfillers_wait_positive_under_load():
    for policy in ("FCFS-BF", "SJF-BF", "EDF-BF"):
        assert objectives(policy, "commodity").wait > 0.0


def test_backfillers_reliability_ideal_with_accurate_estimates():
    """Generous admission + accurate estimates: accepted SLAs always met."""
    for policy in ("FCFS-BF", "SJF-BF", "EDF-BF"):
        assert objectives(policy, "commodity", "A").reliability == 100.0


def test_libra_reliability_suffers_under_trace_estimates():
    """Set B (§6.1): inaccurate estimates break Libra's accepted SLAs."""
    rel_a = objectives("Libra", "commodity", "A").reliability
    rel_b = objectives("Libra", "commodity", "B").reliability
    assert rel_a == pytest.approx(100.0, abs=1.0)
    assert rel_b < rel_a


def test_libra_dollar_earns_more_accepts_fewer():
    """§6.1: the enhanced pricing function trades SLA for profitability."""
    libra = objectives("Libra", "commodity", "A")
    dollar = objectives("Libra+$", "commodity", "A")
    assert dollar.profitability > libra.profitability
    assert dollar.sla <= libra.sla


def test_libra_dollar_profitability_best_of_commodity_policies():
    dollar = objectives("Libra+$", "commodity", "A").profitability
    for policy in ("FCFS-BF", "SJF-BF", "EDF-BF", "Libra"):
        assert dollar > objectives(policy, "commodity", "A").profitability


def test_inaccuracy_reduces_libra_acceptance():
    """§5.2: over-estimation makes admission control reject more jobs."""
    sla_a = objectives("Libra", "commodity", "A").sla
    sla_b = objectives("Libra", "commodity", "B").sla
    assert sla_b < sla_a


# -- §6.2 bid-based model ------------------------------------------------------

def test_bid_wait_ideal_for_libra_family():
    for policy in ("Libra", "LibraRiskD"):
        assert objectives(policy, "bid").wait == 0.0


def test_first_reward_is_risk_averse():
    """§6.2: FirstReward accepts the fewest jobs of the bid policies."""
    fr = objectives("FirstReward", "bid").sla
    for policy in ("FCFS-BF", "EDF-BF", "Libra", "LibraRiskD"):
        assert fr < objectives(policy, "bid").sla


def test_libra_riskd_handles_inaccuracy_better_than_libra():
    """§6.2 headline: LibraRiskD beats Libra under trace estimates."""
    libra = objectives("Libra", "bid", "B")
    riskd = objectives("LibraRiskD", "bid", "B")
    assert riskd.profitability > libra.profitability
    assert riskd.reliability >= libra.reliability - 1.0


def test_libra_riskd_equivalent_to_libra_with_accurate_estimates():
    """With 0% inaccuracy there is no risk to dodge: similar outcomes."""
    libra = objectives("Libra", "bid", "A")
    riskd = objectives("LibraRiskD", "bid", "A")
    assert riskd.sla == pytest.approx(libra.sla, abs=8.0)


def test_backfillers_reliability_ideal_in_bid_set_a():
    for policy in ("FCFS-BF", "EDF-BF"):
        assert objectives(policy, "bid", "A").reliability == 100.0


# -- risk-analysis reductions ---------------------------------------------------

@pytest.mark.slow
def test_grid_produces_valid_risk_statistics():
    scenarios = [scenario_by_name("workload"), scenario_by_name("job mix")]
    grid = run_grid(
        ["FCFS-BF", "Libra"], "commodity",
        ExperimentConfig(n_jobs=120, total_procs=128), "A", scenarios, CACHE,
    )
    for objective in Objective:
        for policy in grid.policies:
            for scenario in grid.scenarios:
                risk = grid.separate[objective][policy][scenario]
                assert 0.0 <= risk.performance <= 1.0
                assert 0.0 <= risk.volatility <= 0.5


@pytest.mark.slow
def test_wait_plot_shows_libra_ideal_and_backfillers_not():
    scenarios = [scenario_by_name("workload")]
    grid = run_grid(
        ["FCFS-BF", "SJF-BF", "EDF-BF", "Libra"], "commodity",
        ExperimentConfig(n_jobs=120, total_procs=128), "A", scenarios, CACHE,
    )
    plot = grid.separate_plot(Objective.WAIT)
    assert plot.series["Libra"].is_ideal()
    assert not plot.series["FCFS-BF"].is_ideal()
