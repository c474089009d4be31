"""One summation rule for every float total that reaches a result.

The time-shared cluster adds each node's values one at a time from 0.0 in
admission order, whatever order the node's ``node_jobs`` set iterates in.
Every other float reduction that reaches a result goes through
``math.fsum``, so it is correctly rounded: on a cancellation case the
builtin ``sum()`` of CPython 3.11 loses the small term, while the
compensated ``sum()`` of 3.12 keeps it.  Either way the result must not
depend on the interpreter.
"""

from __future__ import annotations

import math

import pytest

from repro.cluster.timeshared import ShareMode, TimeSharedCluster
from repro.core.integrated import integrated_risk
from repro.core.objectives import JobOutcome, Objective, compute_objectives
from repro.core.separate import SeparateRisk
from repro.economy.models import make_model
from repro.policies.first_reward import FirstReward
from repro.service.accounting import AccountingLedger
from repro.service.provider import CommercialComputingService
from repro.sim import Simulator
from repro.workload.job import Job

#: admitted in this order; a set of these ids iterates as 1, 10, 3.
ADMISSION = (3, 10, 1)
#: per job: (fraction of work, nodes); shares and required rates 0.1-0.3.
PLACEMENT = {3: (0.1, [0, 1]), 10: (0.2, [0]), 1: (0.3, [0, 2])}
DEADLINE = 100.0


def left_fold(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def node_zero(mode: ShareMode) -> TimeSharedCluster:
    """A cluster whose node 0 holds three jobs, admitted in ``ADMISSION``
    order at time 0, each with share and required rate ``fraction``."""
    cluster = TimeSharedCluster(Simulator(), total_procs=4, mode=mode)
    for jid in ADMISSION:
        fraction, nodes = PLACEMENT[jid]
        job = Job(job_id=jid, submit_time=0.0, runtime=DEADLINE, procs=len(nodes),
                  estimate=fraction * DEADLINE, deadline=DEADLINE)
        cluster.admit(job, fraction, nodes, lambda job, time: None)
    assert tuple(cluster.node_jobs[0]) != ADMISSION
    return cluster


def by_admission(value) -> list[float]:
    return [value(jid) for jid in ADMISSION]


def by_set_order(cluster: TimeSharedCluster, value) -> list[float]:
    return [value(jid) for jid in cluster.node_jobs[0]]


@pytest.mark.parametrize("mode", list(ShareMode))
def test_node_load_is_the_admission_order_fold(mode):
    """The static share total and the dynamic load (required rates) of a
    node are its members' values added in admission order."""
    cluster = node_zero(mode)

    def value(jid: int) -> float:
        state = cluster.state_of(jid)
        if mode is ShareMode.STATIC:
            return state.share
        return state.job.estimate / DEADLINE  # the required rate at time 0

    want = left_fold(by_admission(value))
    assert want.hex() != left_fold(by_set_order(cluster, value)).hex()
    assert cluster.node_share_load(0).hex() == want.hex()
    assert float(cluster._total[0]).hex() == want.hex()


def test_committed_seconds_is_the_admission_order_fold():
    cluster = node_zero(ShareMode.STATIC)
    window = 1.0  # within every deadline: each job holds share × 1 s

    def held(jid: int) -> float:
        state = cluster.state_of(jid)
        return state.share * max(0.0, min(state.absolute_deadline - 0.0, window))

    want = left_fold(by_admission(held))
    assert want.hex() != left_fold(by_set_order(cluster, held)).hex()
    got = cluster.committed_seconds([0, 1, 2], window)
    assert [v.hex() for v in got] == [want.hex(), held(3).hex(), held(1).hex()]


#: a naive left fold of these loses the middle term.
CANCELLING = [1e16, 1.0, -1e16]
#: a naive left fold of these drops both halves of an ulp.
SPLIT_ULP = [1.0, 2.0**-53, 2.0**-53]


def test_cancellation_cases_defeat_the_naive_fold():
    assert left_fold(CANCELLING) == 0.0 and math.fsum(CANCELLING) == 1.0
    assert left_fold(SPLIT_ULP) == 1.0 and math.fsum(SPLIT_ULP) == 1.0 + 2.0**-52


def test_objectives_are_correctly_rounded():
    outcomes = [
        JobOutcome(job_id=i, submit_time=0.0, budget=1.0, accepted=True,
                   start_time=wait, finish_time=wait + 1.0, deadline_met=True,
                   utility=utility)
        for i, (wait, utility) in enumerate(zip(SPLIT_ULP, CANCELLING))
    ]
    objectives = compute_objectives(outcomes)
    assert objectives.wait == math.fsum(SPLIT_ULP) / 3
    assert objectives.profitability == 100.0 * 1.0 / 3.0


def test_ledger_total_is_correctly_rounded():
    ledger = AccountingLedger()
    for i, utility in enumerate(CANCELLING):
        ledger.record(i, float(i), utility)
    assert ledger.total_utility == 1.0


def test_integrated_risk_is_correctly_rounded():
    """μ and σ of Eqs. 7-8 are weighted sums; with weights ½, ¼, ¼ the terms
    are 0.5, 2⁻⁵⁴ and 2⁻⁵⁴, whose exact sum 0.5 + 2⁻⁵³ is a float."""
    objectives = (Objective.WAIT, Objective.SLA, Objective.PROFITABILITY)
    value = (1.0, 2.0**-52, 2.0**-52)
    separate = {obj: SeparateRisk(performance=v, volatility=v)
                for obj, v in zip(objectives, value)}
    weights = dict(zip(objectives, (0.5, 0.25, 0.25)))
    risk = integrated_risk(separate, weights)
    assert left_fold(w * v for w, v in zip(weights.values(), value)) == 0.5
    assert risk.performance == risk.volatility == 0.5 + 2.0**-53


def test_first_reward_opportunity_cost_is_correctly_rounded():
    """The penalty rates of the other outstanding jobs, summed exactly,
    times the priced job's remaining runtime (1 s here)."""
    policy = FirstReward()
    CommercialComputingService(policy, make_model("bid"), total_procs=4)
    queued = [Job(job_id=i, submit_time=0.0, runtime=10.0, estimate=10.0, procs=1,
                  deadline=100.0, budget=10.0, penalty_rate=rate)
              for i, rate in enumerate(SPLIT_ULP)]
    priced = Job(job_id=9, submit_time=0.0, runtime=1.0, estimate=1.0, procs=1,
                 deadline=100.0, budget=10.0, penalty_rate=1.0)
    policy._queue = [*queued, priced]
    assert policy.opportunity_cost(priced) == 1.0 + 2.0**-52
