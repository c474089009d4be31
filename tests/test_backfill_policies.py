"""Unit tests for FCFS-BF, SJF-BF, EDF-BF (EASY backfilling + generous
admission control)."""

from repro.economy.models import make_model
from repro.policies.edf_bf import EDFBackfill
from repro.policies.fcfs_bf import FCFSBackfill
from repro.policies.sjf_bf import SJFBackfill
from repro.service.provider import CommercialComputingService
from repro.workload.job import Job


def make_job(job_id, submit=0.0, runtime=100.0, estimate=None, procs=1,
             deadline=1e6, budget=1e9):
    return Job(job_id=job_id, submit_time=submit, runtime=runtime,
               estimate=estimate if estimate is not None else runtime,
               procs=procs, deadline=deadline, budget=budget)


def run(policy, jobs, model="bid", procs=4):
    svc = CommercialComputingService(policy, make_model(model), total_procs=procs)
    result = svc.run(jobs)
    return {o.job_id: o for o in result.outcomes}


def test_fcfs_orders_by_arrival():
    # All three jobs need the full machine; they must run in arrival order.
    jobs = [
        make_job(1, submit=0.0, procs=4),
        make_job(2, submit=1.0, procs=4),
        make_job(3, submit=2.0, procs=4),
    ]
    out = run(FCFSBackfill(), jobs)
    assert out[1].start_time == 0.0
    assert out[2].start_time == 100.0
    assert out[3].start_time == 200.0


def test_sjf_prefers_shortest_estimate():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=4),
        make_job(2, submit=1.0, runtime=300.0, procs=4),
        make_job(3, submit=2.0, runtime=50.0, procs=4),
    ]
    out = run(SJFBackfill(), jobs)
    # Job 3 (shortest) beats job 2 once job 1 finishes.
    assert out[3].start_time == 100.0
    assert out[2].start_time == 150.0


def test_edf_prefers_earliest_deadline():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=4),
        make_job(2, submit=1.0, runtime=100.0, procs=4, deadline=10_000.0),
        make_job(3, submit=2.0, runtime=100.0, procs=4, deadline=300.0),
    ]
    out = run(EDFBackfill(), jobs)
    assert out[3].start_time == 100.0
    assert out[2].start_time == 200.0


def test_easy_backfill_small_job_jumps_ahead():
    # Head job needs 4 procs at t=100; a 1-proc short job backfills now.
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=3),
        make_job(2, submit=1.0, runtime=500.0, procs=4),   # blocked head
        make_job(3, submit=2.0, runtime=50.0, procs=1),    # fits before shadow
    ]
    out = run(FCFSBackfill(), jobs)
    assert out[3].start_time == 2.0       # backfilled immediately
    assert out[2].start_time == 100.0     # head not delayed


def test_easy_backfill_does_not_delay_head():
    # A long 1-proc job may NOT backfill because it would overrun the shadow
    # time on a processor the head needs.
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=3),
        make_job(2, submit=1.0, runtime=500.0, procs=4),  # head, shadow t=100
        make_job(3, submit=2.0, runtime=400.0, procs=1),  # would delay head
    ]
    out = run(FCFSBackfill(), jobs)
    assert out[2].start_time == 100.0
    assert out[3].start_time == 600.0  # after the head, not before


def test_backfill_into_spare_processors():
    # Head needs 2 procs when 1 is free; at shadow, 3 are free -> spare 1.
    # A long 1-proc job can backfill into the spare processor.
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=3),
        make_job(2, submit=1.0, runtime=500.0, procs=2),   # head, shadow 100
        make_job(3, submit=2.0, runtime=10_000.0, procs=1),
    ]
    out = run(FCFSBackfill(), jobs)
    assert out[3].start_time == 2.0
    assert out[2].start_time == 100.0


def test_arrival_after_an_overdue_release_rescans_the_queue():
    # Jobs 1 and 2 overrun their estimates (due at 10 and 20 s).  At 2 s the
    # head, job 3, has shadow 10 and no spare, so job 4 cannot backfill.  By
    # job 5's arrival at 25 s both releases are overdue: the shadow clamps to
    # 25 with one spare processor, and the older job 4 takes it, not job 5.
    jobs = [
        make_job(1, submit=0.0, procs=2, estimate=10.0, runtime=100.0),
        make_job(2, submit=0.0, procs=1, estimate=20.0, runtime=100.0),
        make_job(3, submit=1.0, procs=3, estimate=10.0, runtime=10.0),
        make_job(4, submit=2.0, procs=1, estimate=100.0, runtime=100.0),
        make_job(5, submit=25.0, procs=1, estimate=5.0, runtime=5.0),
    ]
    out = run(FCFSBackfill(), jobs)
    assert out[4].start_time == 25.0
    assert out[3].start_time == 100.0
    assert out[5].start_time == 110.0


def test_generous_admission_rejects_lapsed_deadline():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=4),
        make_job(2, submit=1.0, runtime=10.0, procs=4, deadline=50.0),
    ]
    out = run(FCFSBackfill(), jobs)
    assert not out[2].accepted  # deadline lapsed at t=100 before it could run


def test_generous_admission_rejects_predicted_miss():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=4),
        # At t=100 prediction: 100 + 200 > 0 + 250 -> reject.
        make_job(2, submit=0.0, runtime=200.0, procs=4, deadline=250.0),
    ]
    out = run(FCFSBackfill(), jobs)
    assert not out[2].accepted


def test_underestimate_slips_past_admission():
    # Estimate predicts on-time but the actual runtime misses the deadline:
    # the SLA is accepted yet unreliable (the paper's Set B effect).
    jobs = [make_job(1, runtime=200.0, estimate=100.0, deadline=150.0, procs=1)]
    out = run(FCFSBackfill(), jobs)
    assert out[1].accepted
    assert not out[1].deadline_met


def test_commodity_budget_rejection_applies():
    jobs = [make_job(1, runtime=100.0, budget=10.0)]
    out = run(FCFSBackfill(), jobs, model="commodity")
    assert not out[1].accepted


def test_acceptance_happens_at_start_not_submission():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=4),
        make_job(2, submit=0.0, runtime=100.0, procs=4),
    ]
    policy = FCFSBackfill()
    svc = CommercialComputingService(policy, make_model("bid"), total_procs=4)
    result = svc.run(jobs)
    rec2 = next(r for r in result.records if r.job.job_id == 2)
    assert rec2.accept_time == 100.0  # examined only prior to execution
    assert rec2.start_time == 100.0


def test_queue_introspection():
    from repro.service.sla import SLARecord

    policy = FCFSBackfill()
    svc = CommercialComputingService(policy, make_model("bid"), total_procs=4)
    jobs = [make_job(1, procs=4, runtime=100.0), make_job(2, submit=1.0, procs=4, runtime=100.0)]
    for job in jobs:
        svc._records[job.job_id] = SLARecord(job=job)
        svc.sim.schedule_at(job.submit_time, policy.submit, job)
    svc.sim.run(until=50.0)  # job 1 running, job 2 still queued
    assert policy.queue_length == 1
    assert [j.job_id for j in policy.queued_jobs()] == [2]
