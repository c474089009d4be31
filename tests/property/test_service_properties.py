"""Property-based tests of the service layer across all policies.

Random workloads through every registered policy, checking invariants that
must hold regardless of scheduling decisions — also under random correlated
faults (rack outages, cascade waves, both recovery modes).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objectives import compute_objectives
from repro.economy.models import make_model
from repro.faults.config import FaultConfig
from repro.policies import POLICIES, make_policy
from repro.service.provider import CommercialComputingService
from repro.workload.job import Job

TOTAL_PROCS = 8

job_strategy = st.builds(
    dict,
    submit=st.floats(0.0, 5000.0),
    runtime=st.floats(1.0, 2000.0),
    est_factor=st.floats(0.3, 5.0),
    procs=st.integers(1, TOTAL_PROCS),
    deadline_factor=st.floats(1.1, 20.0),
    budget_factor=st.floats(0.5, 20.0),
    pr_factor=st.floats(0.0, 4.0),
)

workloads = st.lists(job_strategy, min_size=1, max_size=12)


def build_jobs(raw):
    jobs = []
    for i, spec in enumerate(raw, start=1):
        runtime = spec["runtime"]
        jobs.append(
            Job(
                job_id=i,
                submit_time=spec["submit"],
                runtime=runtime,
                estimate=max(runtime * spec["est_factor"], 1.0),
                procs=spec["procs"],
                deadline=runtime * spec["deadline_factor"],
                budget=runtime * spec["budget_factor"],
                penalty_rate=spec["pr_factor"] * spec["budget_factor"] / spec["deadline_factor"],
            )
        )
    return jobs


def run_policy(policy_name, jobs, model="bid"):
    service = CommercialComputingService(
        make_policy(policy_name), make_model(model), total_procs=TOTAL_PROCS
    )
    return service.run([j.clone() for j in jobs])


@given(workloads, st.sampled_from(sorted(POLICIES)))
@settings(max_examples=60, deadline=None)
def test_every_job_resolves_and_timestamps_are_sane(raw, policy_name):
    jobs = build_jobs(raw)
    result = run_policy(policy_name, jobs)
    assert len(result.outcomes) == len(jobs)
    by_id = {j.job_id: j for j in jobs}
    for o in result.outcomes:
        job = by_id[o.job_id]
        if o.accepted:
            assert o.start_time is not None and o.finish_time is not None
            assert o.start_time >= job.submit_time - 1e-9
            assert o.finish_time > o.start_time
        else:
            assert o.start_time is None


@given(workloads, st.sampled_from(["FCFS-BF", "SJF-BF", "EDF-BF", "FCFS", "Cons-BF", "FirstReward"]))
@settings(max_examples=60, deadline=None)
def test_spaceshared_runtime_is_exact(raw, policy_name):
    jobs = build_jobs(raw)
    result = run_policy(policy_name, jobs)
    by_id = {j.job_id: j for j in jobs}
    for o in result.outcomes:
        if o.accepted:
            assert math.isclose(
                o.finish_time - o.start_time, by_id[o.job_id].runtime,
                rel_tol=1e-9, abs_tol=1e-6,
            )


@given(workloads, st.sampled_from(sorted(POLICIES)))
@settings(max_examples=40, deadline=None)
def test_ledger_matches_outcome_utilities(raw, policy_name):
    jobs = build_jobs(raw)
    result = run_policy(policy_name, jobs)
    outcome_total = sum(o.utility for o in result.outcomes)
    assert math.isclose(
        result.ledger.total_utility, outcome_total, rel_tol=1e-9, abs_tol=1e-6
    )


@given(workloads, st.sampled_from(sorted(POLICIES)))
@settings(max_examples=40, deadline=None)
def test_sla_never_exceeds_reliability(raw, policy_name):
    # n_SLA/m <= n_SLA/n because n <= m (Eqs. 2-3).
    jobs = build_jobs(raw)
    objs = run_policy(policy_name, jobs).objectives()
    assert objs.sla <= objs.reliability + 1e-9
    assert 0.0 <= objs.sla <= 100.0
    assert 0.0 <= objs.reliability <= 100.0


@given(workloads, st.sampled_from(["Libra", "Libra+$", "LibraRiskD"]))
@settings(max_examples=40, deadline=None)
def test_timeshared_accepts_start_immediately(raw, policy_name):
    # The Libra family examines jobs at submission: zero wait by design.
    jobs = build_jobs(raw)
    result = run_policy(policy_name, jobs)
    for o in result.outcomes:
        if o.accepted:
            assert math.isclose(o.start_time, o.submit_time, abs_tol=1e-9)


@given(workloads)
@settings(max_examples=30, deadline=None)
def test_commodity_never_charges_above_budget(raw):
    jobs = build_jobs(raw)
    for policy_name in ("FCFS-BF", "Libra", "Libra+$"):
        result = run_policy(policy_name, jobs, model="commodity")
        by_id = {j.job_id: j for j in jobs}
        for o in result.outcomes:
            if o.accepted:
                assert o.utility <= by_id[o.job_id].budget + 1e-6


@given(workloads)
@settings(max_examples=30, deadline=None)
def test_accurate_estimates_imply_no_violations_for_backfillers(raw):
    # With estimate == runtime, the generous admission control guarantees
    # that every accepted job meets its deadline.
    jobs = build_jobs(raw)
    for job in jobs:
        job.estimate = job.runtime
    result = run_policy("FCFS-BF", jobs)
    assert result.objectives().reliability == 100.0


#: correlated fault regimes on the 8-node machine: racks of any size,
#: outages and node failures frequent enough to hit a 5000 s workload.
fault_regimes = st.builds(
    FaultConfig,
    enabled=st.just(True),
    mtbf=st.floats(2_000.0, 50_000.0),
    mttr=st.floats(10.0, 2_000.0),
    recovery=st.sampled_from(["resubmit", "checkpoint"]),
    checkpoint_interval=st.sampled_from([100.0, 600.0]),
    domain_size=st.integers(1, TOTAL_PROCS),
    domain_mtbf=st.floats(1_000.0, 20_000.0),
    domain_mttr=st.floats(10.0, 3_000.0),
    cascade_prob=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    cascade_delay=st.sampled_from([1.0, 30.0]),
    cascade_depth=st.integers(1, 3),
)


@given(workloads, st.sampled_from(sorted(POLICIES)), fault_regimes,
       st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_every_sla_resolves_exactly_once_under_correlated_faults(
        raw, policy_name, faults, seed):
    jobs = build_jobs(raw)
    service = CommercialComputingService(
        make_policy(policy_name), make_model("bid"), total_procs=TOTAL_PROCS,
        fault_config=faults, fault_seed=seed,
    )
    resolutions: dict[int, int] = {}

    def observe(event, record):
        if event in ("rejected", "finished"):
            job_id = record.job.job_id
            resolutions[job_id] = resolutions.get(job_id, 0) + 1

    service.observers.append(observe)
    result = service.run([j.clone() for j in jobs])
    assert resolutions == {j.job_id: 1 for j in jobs}
    assert service.unresolved_count() == 0
    stats = service.injector.stats
    assert stats.repairs <= stats.failures
    for o in result.outcomes:
        if o.accepted and o.finish_time is not None:
            assert o.finish_time >= o.start_time >= o.submit_time - 1e-9
