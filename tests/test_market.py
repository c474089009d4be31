"""Unit tests for the multi-provider market extension (paper §3)."""

import math

import numpy as np
import pytest

from market_reference import UserAgent
from repro.market.marketplace import Marketplace, ProviderSpec
from repro.market.provider import SyntheticProvider, SyntheticSpec
from repro.market.user import SatisfactionParams, softmax_pick
from repro.service.sla import SLARecord
from repro.workload.job import Job
from repro.workload.qos import QoSSpec, assign_qos
from repro.workload.synthetic import SDSC_SP2, generate_trace


def make_record(accepted=True, met=True, wait=0.0, deadline=1000.0):
    job = Job(job_id=1, submit_time=0.0, runtime=100.0, estimate=100.0,
              procs=1, deadline=deadline, budget=10.0)
    rec = SLARecord(job=job)
    if accepted:
        rec.accept(wait)
        rec.start(wait)
        rec.finish(wait + 100.0 if met else deadline + 500.0, utility=10.0)
    else:
        rec.reject("test")
    return rec


# -- user agent ---------------------------------------------------------------

def test_outcome_scores_ordering():
    user = UserAgent(1, ("p",))
    fulfilled = user.outcome_score(make_record())
    rejected = user.outcome_score(make_record(accepted=False))
    violated = user.outcome_score(make_record(met=False))
    assert fulfilled > rejected > violated


def test_wait_discount_reduces_reward():
    user = UserAgent(1, ("p",))
    instant = user.outcome_score(make_record(wait=0.0))
    slow = user.outcome_score(make_record(wait=800.0))
    assert slow < instant
    assert slow > 0.0  # still positive: the SLA was honoured


def test_observe_moves_score_toward_outcome():
    user = UserAgent(1, ("p",), params=SatisfactionParams(learning_rate=0.5))
    before = user.scores["p"]
    user.observe("p", make_record(accepted=False))
    assert user.scores["p"] < before
    assert list(user.history) == [("p", "rejected")]


def test_history_is_bounded():
    user = UserAgent(1, ("p",), history_limit=5)
    for _ in range(50):
        user.observe("p", make_record())
    assert len(user.history) == 5
    # history_limit=0 disables recording entirely but learning still works.
    quiet = UserAgent(2, ("p",), history_limit=0)
    before = quiet.scores["p"]
    quiet.observe("p", make_record(accepted=False))
    assert quiet.scores["p"] < before
    assert len(quiet.history) == 0


def test_observe_unknown_provider_raises():
    user = UserAgent(1, ("p",))
    with pytest.raises(KeyError):
        user.observe("q", make_record())


def test_choice_prefers_satisfied_provider():
    params = SatisfactionParams(temperature=0.05)  # near-greedy
    user = UserAgent(1, ("good", "bad"), params=params)
    user.scores["good"] = 1.0
    user.scores["bad"] = -2.0
    rng = np.random.default_rng(0)
    picks = [user.choose_provider(rng) for _ in range(50)]
    assert picks.count("good") >= 48


def test_choice_explores_at_high_temperature():
    params = SatisfactionParams(temperature=50.0)
    user = UserAgent(1, ("a", "b"), params=params)
    user.scores["a"] = 1.0
    user.scores["b"] = -2.0
    rng = np.random.default_rng(0)
    picks = [user.choose_provider(rng) for _ in range(200)]
    assert 60 < picks.count("a") < 140  # near uniform


def test_softmax_pick_is_an_inverse_cdf():
    # Greedy limit: nearly all mass on the best index.
    assert softmax_pick([0.0, 5.0], temperature=0.01, u=0.5) == 1
    # u close to each edge selects the matching side of the CDF.
    assert softmax_pick([1.0, 1.0], temperature=1.0, u=0.0) == 0
    assert softmax_pick([1.0, 1.0], temperature=1.0, u=0.999) == 1
    # One provider: every draw picks it.
    assert softmax_pick([3.0], temperature=0.25, u=0.99) == 0
    # u == 1.0 (cannot happen from random() but guard anyway) clamps.
    assert softmax_pick([0.0, 0.0], temperature=1.0, u=1.0) == 1


def test_preferred_provider():
    user = UserAgent(1, ("a", "b"))
    user.scores["b"] = 2.0
    assert user.preferred_provider() == "b"


def test_params_validation():
    with pytest.raises(ValueError):
        SatisfactionParams(learning_rate=0.0)
    with pytest.raises(ValueError):
        SatisfactionParams(temperature=0.0)
    with pytest.raises(ValueError):
        UserAgent(1, ())


# -- synthetic providers -------------------------------------------------------

def qos_job(job_id=1, submit=0.0, runtime=100.0, procs=8, deadline=500.0,
            budget=100.0, penalty_rate=0.5):
    return Job(job_id=job_id, submit_time=submit, runtime=runtime,
               estimate=runtime, procs=procs, deadline=deadline,
               budget=budget, penalty_rate=penalty_rate)


def test_synthetic_spec_validation_and_roundtrip():
    with pytest.raises(ValueError):
        SyntheticSpec("p", capacity=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec("p", admission="bogus")
    with pytest.raises(ValueError):
        SyntheticSpec("p", mtbf=-1.0)
    spec = SyntheticSpec("p", capacity=32.0, admission="deadline",
                         mtbf=3600.0, mttr=60.0)
    assert SyntheticSpec.from_dict(spec.to_dict()) == spec
    # infinity-valued queue_limit survives the JSON-safe round trip.
    unbounded = SyntheticSpec("q")
    again = SyntheticSpec.from_dict(unbounded.to_dict())
    assert math.isinf(again.queue_limit)


def test_synthetic_provider_fluid_queue():
    prov = SyntheticProvider(SyntheticSpec("p", capacity=10.0))
    # 100s * 10 procs / 10 capacity = 100s of service, empty queue.
    first = prov.submit(qos_job(1, submit=0.0, runtime=100.0, procs=10), now=0.0)
    assert first.accepted and first.wait == 0.0 and first.finish == 100.0
    assert first.deadline_met and first.utility == 100.0  # full budget
    # Second job queues behind the first.
    second = prov.submit(qos_job(2, submit=10.0, runtime=100.0, procs=10), now=10.0)
    assert second.accepted and second.wait == 90.0 and second.finish == 200.0


def test_synthetic_admission_policies():
    tight = qos_job(1, runtime=1000.0, procs=10, deadline=500.0)
    greedy = SyntheticProvider(SyntheticSpec("g", capacity=10.0, admission="greedy"))
    out = greedy.submit(tight, now=0.0)
    assert out.accepted and not out.deadline_met  # violation, not rejection
    assert out.utility < tight.budget  # late: linear penalty applied
    careful = SyntheticProvider(
        SyntheticSpec("c", capacity=10.0, admission="deadline"))
    assert not careful.submit(tight, now=0.0).accepted


def test_synthetic_queue_limit_rejects_backlog():
    spec = SyntheticSpec("p", capacity=10.0, queue_limit=50.0)
    prov = SyntheticProvider(spec)
    assert prov.submit(qos_job(1, runtime=100.0, procs=10), now=0.0).accepted
    # backlog wait would be 100s > 50s limit.
    assert not prov.submit(qos_job(2, runtime=10.0, procs=10), now=0.0).accepted


def test_synthetic_failures_freeze_the_queue():
    rng = np.random.default_rng(7)
    spec = SyntheticSpec("p", capacity=64.0, mtbf=1000.0, mttr=500.0)
    prov = SyntheticProvider(spec, rng=rng)
    out = prov.submit(qos_job(1, submit=1e6, runtime=10.0, procs=1,
                              deadline=1e9), now=1e6)
    assert prov.failures > 0  # outages up to t=1e6 were folded in
    assert out.accepted
    with pytest.raises(ValueError):
        SyntheticProvider(spec, rng=None)  # failing provider needs an RNG


# -- marketplace ----------------------------------------------------------------

def market_workload(n=120, seed=3):
    from dataclasses import replace

    model = replace(SDSC_SP2, n_jobs=n, max_procs=64)
    jobs = generate_trace(model, rng=seed)
    assign_qos(jobs, QoSSpec(), rng=seed)
    for job in jobs:
        job.submit_time *= 0.25  # heavy load
    return jobs


def test_marketplace_validation():
    spec = ProviderSpec("a", "FCFS-BF")
    with pytest.raises(ValueError):
        Marketplace([])
    with pytest.raises(ValueError):
        Marketplace([spec, ProviderSpec("a", "EDF-BF")])
    with pytest.raises(ValueError):
        Marketplace([spec], n_users=0)
    with pytest.raises(TypeError):
        Marketplace(["not-a-spec"])


def test_marketplace_conserves_jobs():
    market = Marketplace(
        [ProviderSpec("alpha", "FCFS-BF", total_procs=64),
         ProviderSpec("beta", "EDF-BF", total_procs=64)],
        n_users=10, seed=1,
    )
    jobs = market_workload(80)
    market.run(jobs)
    total = sum(s.submitted for s in market.stats.values())
    assert total == len(jobs)
    shares = [market.market_share(p) for p in ("alpha", "beta")]
    assert sum(shares) == pytest.approx(1.0)


def test_marketplace_outcomes_accounted():
    market = Marketplace(
        [ProviderSpec("alpha", "FCFS-BF", total_procs=64),
         ProviderSpec("beta", "LibraRiskD", total_procs=64)],
        n_users=8, seed=2,
    )
    market.run(market_workload(80))
    for name, stats in market.stats.items():
        assert stats.accepted + stats.rejected == stats.submitted
        assert stats.fulfilled + stats.violated == stats.accepted
        # every resolved outcome was folded into the population.
        counts = market.outcome_counts()[name]
        assert counts["fulfilled"] == stats.fulfilled
        assert counts["violated"] == stats.violated
        assert counts["rejected"] == stats.rejected
    rows = market.summary_rows()
    assert {r["provider"] for r in rows} == {"alpha", "beta"}
    assert sum(r["loyal_users"] for r in rows) == 8


def test_marketplace_streams_lazily():
    """run() accepts an unsized generator and keeps FEL memory O(1)."""
    jobs = market_workload(60)
    peak_pending = [0]

    market = Marketplace(
        [ProviderSpec("alpha", "FCFS-BF", total_procs=64),
         ProviderSpec("beta", "EDF-BF", total_procs=64)],
        n_users=6, seed=1,
    )

    def stream():
        for job in jobs:
            peak_pending[0] = max(peak_pending[0], market.sim.pending())
            yield job

    market.run(stream())
    total = sum(s.submitted for s in market.stats.values())
    assert total == len(jobs)
    # The pump holds one arrival at a time: pending events are bounded by
    # in-flight provider work, never by the length of the stream.
    assert peak_pending[0] < len(jobs)


def test_marketplace_rejects_unsorted_stream():
    a = qos_job(1, submit=100.0)
    b = qos_job(2, submit=50.0)
    market = Marketplace([SyntheticSpec("p")], n_users=2, seed=0)
    with pytest.raises(ValueError, match="sorted by submit_time"):
        market.run([a, b])


def test_synthetic_marketplace_end_to_end():
    market = Marketplace(
        [SyntheticSpec("steady", capacity=96.0, admission="deadline"),
         SyntheticSpec("risky", capacity=96.0, admission="greedy",
                       mtbf=20_000.0, mttr=50_000.0)],
        n_users=50, seed=9,
    )
    market.run(market_workload(200, seed=9))
    total = sum(s.submitted for s in market.stats.values())
    assert total == 200
    for stats in market.stats.values():
        assert stats.accepted + stats.rejected == stats.submitted
        assert stats.fulfilled + stats.violated == stats.accepted
    # The deadline-admitting provider never violates an accepted SLA.
    assert market.stats["steady"].violated == 0
    rows = {r["provider"]: r for r in market.summary_rows()}
    assert rows["steady"]["policy"] == "synthetic/deadline"
    assert rows["risky"]["policy"] == "synthetic/greedy"


def test_hostile_provider_loses_market_share():
    """The §3 claim: a provider that rejects nearly everything (FirstReward
    with an absurd slack threshold) bleeds users to a serving provider."""
    market = Marketplace(
        [
            ProviderSpec("serving", "FCFS-BF", total_procs=64),
            ProviderSpec(
                "hostile", "FirstReward", total_procs=64,
                policy_kwargs={"slack_threshold": 1e12},
            ),
        ],
        n_users=12, seed=4,
    )
    market.run(market_workload(200))
    assert market.stats["hostile"].rejected == market.stats["hostile"].submitted
    # Users learn: the serving provider ends with the dominant final share
    # and (almost) all loyal users.
    assert market.final_share("serving") > 0.7
    assert market.preferred_counts()["serving"] >= 11
    assert market.revenue("serving") > market.revenue("hostile")


def test_share_samples_accumulate():
    market = Marketplace(
        [ProviderSpec("a", "FCFS-BF", total_procs=64),
         ProviderSpec("b", "EDF-BF", total_procs=64)],
        n_users=6, seed=5, share_window=10_000.0,
    )
    market.run(market_workload(100))
    assert market.share_samples
    for sample in market.share_samples:
        assert abs(sum(sample.share(p) for p in ("a", "b")) - 1.0) < 1e-9
