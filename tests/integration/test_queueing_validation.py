"""Queueing-theory validation of the simulation substrate.

If the event engine and the space-shared cluster are correct, a
single-processor FCFS system fed Poisson arrivals with exponential service
must reproduce the M/M/1 formulas.  These tests drive exactly that system
through the *full* service stack (provider, policy, SLA records) and check
the analytic answers — strong end-to-end evidence that waiting, service,
and utilisation arithmetic are right.

The time-shared cluster is checked the same way: one node shared by jobs
with unreachable deadlines is an M/G/1 processor-sharing queue, whose
mean sojourn time is E[S]/(1−ρ) whatever the service distribution.
"""

import numpy as np
import pytest

from repro.economy.models import make_model
from repro.policies import make_policy
from repro.policies.fcfs import FCFSPlain
from repro.service.provider import CommercialComputingService
from repro.workload.job import Job


def response_times(outcomes):
    """Finish − submit of every job that ran to completion."""
    return np.array([o.finish_time - o.submit_time for o in outcomes
                     if o.accepted and o.start_time is not None and o.finish_time is not None])


def mm1_workload(n, lam, mu, seed):
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / lam, size=n)
    submits = np.cumsum(gaps)
    services = np.maximum(rng.exponential(1.0 / mu, size=n), 1e-9)
    return [
        Job(job_id=i + 1, submit_time=float(submits[i]), runtime=float(services[i]),
            estimate=float(services[i]), procs=1, deadline=1e12, budget=1e12)
        for i in range(n)
    ]


def run_mm1(n=20_000, lam=0.5, mu=1.0, seed=0):
    jobs = mm1_workload(n, lam, mu, seed)
    service = CommercialComputingService(
        FCFSPlain(admission_control=False), make_model("bid"), total_procs=1
    )
    return service.run(jobs)


@pytest.mark.slow
def test_mm1_mean_response_time():
    lam, mu = 0.5, 1.0
    result = run_mm1(lam=lam, mu=mu)
    # Discard a warmup prefix; M/M/1: E[T] = 1 / (mu - lam) = 2.0.
    times = response_times(result.outcomes)[2000:]
    assert times.mean() == pytest.approx(1.0 / (mu - lam), rel=0.08)


@pytest.mark.slow
def test_mm1_utilization():
    lam, mu = 0.5, 1.0
    result = run_mm1(lam=lam, mu=mu)
    busy = sum(o.finish_time - o.start_time for o in result.outcomes)
    assert busy / result.sim_time == pytest.approx(lam / mu, rel=0.05)


@pytest.mark.slow
def test_mm1_response_scales_with_load():
    light = response_times(run_mm1(n=8000, lam=0.3, seed=1).outcomes)[1000:].mean()
    heavy = response_times(run_mm1(n=8000, lam=0.8, seed=1).outcomes)[1000:].mean()
    # E[T] at rho=0.3 is 1/0.7 ~ 1.43; at rho=0.8 it's 1/0.2 = 5.0.
    assert heavy > 2.5 * light


@pytest.mark.slow
def test_md1_waits_half_of_mm1():
    """Deterministic service (M/D/1) halves the queueing delay vs M/M/1 —
    the Pollaczek-Khinchine sanity check on the queueing dynamics."""
    lam, mu, n = 0.5, 1.0, 20_000
    rng = np.random.default_rng(3)
    gaps = rng.exponential(1.0 / lam, size=n)
    submits = np.cumsum(gaps)
    jobs = [
        Job(job_id=i + 1, submit_time=float(submits[i]), runtime=1.0 / mu,
            estimate=1.0 / mu, procs=1, deadline=1e12, budget=1e12)
        for i in range(n)
    ]
    service = CommercialComputingService(
        FCFSPlain(admission_control=False), make_model("bid"), total_procs=1
    )
    result = service.run(jobs)
    waits = np.array([o.start_time - o.submit_time for o in result.outcomes])[2000:]
    rho = lam / mu
    expected_wq = rho / (2 * mu * (1 - rho))  # P-K for M/D/1: 0.5
    assert waits.mean() == pytest.approx(expected_wq, rel=0.10)


def service_times(distribution, rng, n):
    """Service times with mean 1 s."""
    if distribution == "exponential":
        return rng.exponential(1.0, size=n)
    if distribution == "deterministic":
        return np.ones(n)
    return np.where(rng.random(n) < 0.8, 0.5, 3.0)  # bimodal


@pytest.mark.slow
@pytest.mark.parametrize("distribution", ["exponential", "deterministic", "bimodal"])
def test_mg1_ps_mean_sojourn_is_insensitive(distribution):
    """M/G/1-PS on one time-shared node, under both share disciplines.

    With deadline 1e12 s every job's share ``estimate / deadline`` is
    negligible, so each of the k jobs present runs at rate 1/k: Libra's
    static shares leave the whole node as an equal bonus, and LibraRiskD's
    required rates all sit on the ``MIN_DYNAMIC_SHARE`` floor.
    """
    lam, n = 0.5, 20_000
    rng = np.random.default_rng(0)
    submits = np.cumsum(rng.exponential(1.0 / lam, size=n))
    services = np.maximum(service_times(distribution, rng, n), 1e-9)
    means = {}
    for policy in ("Libra", "LibraRiskD"):
        jobs = [
            Job(job_id=i + 1, submit_time=float(submits[i]), runtime=float(services[i]),
                estimate=float(services[i]), procs=1, deadline=1e12, budget=1e12)
            for i in range(n)
        ]
        service = CommercialComputingService(
            make_policy(policy), make_model("bid"), total_procs=1
        )
        result = service.run(jobs)
        times = response_times(result.outcomes)
        assert len(times) == n  # every job admitted and finished
        means[policy] = times[2000:].mean()
    # E[T] = E[S] / (1 - rho) = 2.0 for any service distribution.
    assert means["Libra"] == pytest.approx(1.0 / (1.0 - lam), rel=0.08)
    assert means["LibraRiskD"] == pytest.approx(means["Libra"], rel=1e-9)
