"""Unit tests for penalty, pricing, and the economic models (paper §5.1-5.2)."""

import pytest

from repro.economy.models import (
    BidBasedModel,
    BoundedBidModel,
    CommodityMarketModel,
    make_model,
)
from repro.economy.penalty import (
    bounded_utility,
    breakeven_finish_time,
    delay_of,
    linear_utility,
    utility_curve,
)
from repro.economy.pricing import (
    PricingParams,
    flat_cost,
    libra_cost,
    libra_dollar_cost,
    libra_dollar_node_price,
)
from repro.workload.job import Job


def make_job(budget=100.0, penalty_rate=1.0, deadline=100.0, estimate=50.0, runtime=50.0):
    return Job(
        job_id=1,
        submit_time=10.0,
        runtime=runtime,
        estimate=estimate,
        procs=2,
        deadline=deadline,
        budget=budget,
        penalty_rate=penalty_rate,
    )


# -- penalty function (Fig. 2, Eqs. 9-10) -----------------------------------

def test_no_delay_when_on_time():
    job = make_job()
    assert delay_of(job, finish_time=110.0) == 0.0  # exactly at deadline
    assert delay_of(job, finish_time=60.0) == 0.0


def test_delay_measured_from_submission():
    job = make_job()  # submitted at 10, deadline 100 -> due at 110
    assert delay_of(job, finish_time=150.0) == pytest.approx(40.0)


def test_finish_before_submit_raises():
    with pytest.raises(ValueError):
        delay_of(make_job(), finish_time=5.0)


def test_utility_full_budget_on_time():
    assert linear_utility(make_job(), 110.0) == pytest.approx(100.0)


def test_utility_drops_linearly_and_unbounded():
    job = make_job(budget=100.0, penalty_rate=2.0)
    assert linear_utility(job, 130.0) == pytest.approx(100.0 - 2.0 * 20.0)
    # Unbounded below: a huge delay produces a large negative utility.
    assert linear_utility(job, 10_000.0) < -10_000.0


def test_breakeven_crossing():
    job = make_job(budget=100.0, penalty_rate=2.0)
    t0 = breakeven_finish_time(job)
    assert linear_utility(job, t0) == pytest.approx(0.0)
    assert breakeven_finish_time(make_job(penalty_rate=0.0)) == float("inf")


def test_utility_curve_is_monotone_nonincreasing():
    job = make_job()
    times = [50.0, 110.0, 120.0, 200.0, 500.0]
    curve = utility_curve(job, times)
    assert curve == sorted(curve, reverse=True)


# -- pricing (§5.2) -----------------------------------------------------------

def test_flat_cost_charges_estimate():
    job = make_job(estimate=50.0, runtime=40.0)
    assert flat_cost(job) == pytest.approx(50.0)
    assert flat_cost(job, PricingParams(pbase=2.0)) == pytest.approx(100.0)


def test_libra_cost_rewards_relaxed_deadline():
    tight = make_job(estimate=50.0, deadline=60.0)
    relaxed = make_job(estimate=50.0, deadline=500.0)
    assert libra_cost(tight) > libra_cost(relaxed)
    # gamma*tr + delta*tr*(tr/d)
    assert libra_cost(tight) == pytest.approx(50.0 + 50.0 * (50.0 / 60.0))


def test_libra_dollar_price_rises_with_saturation():
    job = make_job(estimate=50.0, deadline=100.0)
    idle = libra_dollar_node_price(job, node_committed_seconds=0.0)
    busy = libra_dollar_node_price(job, node_committed_seconds=45.0)
    assert busy > idle
    # RESMax=100, RESFree=100-0-50: price = alpha + beta*100/50.
    assert idle == pytest.approx(1.0 + 0.3 * 100.0 / 50.0)
    assert busy == pytest.approx(1.0 + 0.3 * 100.0 / 5.0)


def test_libra_dollar_price_bounded_at_saturation():
    job = make_job(estimate=99.0, deadline=100.0)
    price = libra_dollar_node_price(job, node_committed_seconds=100.0)
    assert price < float("inf")
    assert price > 100.0  # punitive but finite


def test_libra_dollar_negative_commitment_rejected():
    job = make_job(estimate=50.0, deadline=100.0)
    with pytest.raises(ValueError):
        libra_dollar_node_price(job, node_committed_seconds=-1.0)


def test_libra_dollar_cost_uses_highest_node_price():
    job = make_job(estimate=50.0, deadline=100.0)
    cost = libra_dollar_cost(job, [0.0, 0.4])
    expected = libra_dollar_node_price(job, 0.4) * 50.0
    assert cost == pytest.approx(expected)
    with pytest.raises(ValueError):
        libra_dollar_cost(job, [])


# -- economic models ----------------------------------------------------------

def test_commodity_rejects_cost_above_budget():
    model = CommodityMarketModel()
    job = make_job(budget=100.0)
    assert model.admissible(job, expected_cost=100.0)
    assert not model.admissible(job, expected_cost=100.01)


def test_commodity_utility_is_quoted_cost_even_when_late():
    model = CommodityMarketModel()
    job = make_job(budget=100.0)
    assert model.utility(job, finish_time=10_000.0, quoted_cost=80.0) == 80.0
    # Defensive budget cap.
    assert model.utility(job, finish_time=50.0, quoted_cost=130.0) == 100.0


def test_bid_always_admissible_and_penalised():
    model = BidBasedModel()
    job = make_job(budget=100.0, penalty_rate=1.0)
    assert model.admissible(job, expected_cost=1e9)
    assert model.utility(job, finish_time=110.0, quoted_cost=0.0) == pytest.approx(100.0)
    assert model.utility(job, finish_time=160.0, quoted_cost=0.0) == pytest.approx(50.0)


def test_make_model_factory():
    assert make_model("commodity").name == "commodity"
    assert make_model("bid").name == "bid"
    with pytest.raises(ValueError):
        make_model("barter")


# -- bounded penalty --------------------------------------------------------------

def test_bounded_utility_floors_at_budget_multiple():
    job = make_job(budget=100.0, penalty_rate=10.0, deadline=100.0)
    very_late = job.submit_time + job.deadline + 1e6
    assert linear_utility(job, very_late) < -100.0
    assert bounded_utility(job, very_late, floor_factor=1.0) == -100.0
    assert bounded_utility(job, very_late, floor_factor=0.0) == 0.0


def test_bounded_matches_linear_when_on_time():
    job = make_job(budget=100.0, penalty_rate=1.0, deadline=100.0)
    assert bounded_utility(job, 50.0) == linear_utility(job, 50.0) == 100.0


def test_bounded_model_registered():
    model = make_model("bid-bounded")
    assert model.name == "bid-bounded"
    job = make_job(budget=100.0, penalty_rate=10.0, deadline=100.0)
    assert model.utility(job, 1e7, 0.0) == -100.0


def test_bounded_model_validation():
    with pytest.raises(ValueError):
        BoundedBidModel(floor_factor=-1.0)
    with pytest.raises(ValueError):
        bounded_utility(make_job(), 50.0, floor_factor=-0.5)
