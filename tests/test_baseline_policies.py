"""Unit tests for the ablation baselines: plain FCFS, conservative
backfilling, and the admission-control switch."""

from repro.economy.models import make_model
from repro.policies import make_policy
from repro.policies.conservative_bf import ConservativeBackfill
from repro.policies.fcfs import FCFSPlain
from repro.policies.fcfs_bf import FCFSBackfill
from repro.service.provider import CommercialComputingService
from repro.workload.job import Job


def make_job(job_id, submit=0.0, runtime=100.0, estimate=None, procs=1,
             deadline=1e6, budget=1e9):
    return Job(job_id=job_id, submit_time=submit, runtime=runtime,
               estimate=estimate if estimate is not None else runtime,
               procs=procs, deadline=deadline, budget=budget)


def run(policy, jobs, procs=4):
    svc = CommercialComputingService(policy, make_model("bid"), total_procs=procs)
    return {o.job_id: o for o in svc.run(jobs).outcomes}


BLOCKING_WORKLOAD = [
    # Head blocked at t=100; a short narrow job sits behind it.
    lambda: make_job(1, submit=0.0, runtime=100.0, procs=3),
    lambda: make_job(2, submit=1.0, runtime=500.0, procs=4),
    lambda: make_job(3, submit=2.0, runtime=50.0, procs=1),
]


def workload():
    return [f() for f in BLOCKING_WORKLOAD]


def test_plain_fcfs_never_backfills():
    out = run(FCFSPlain(), workload())
    # Job 3 must wait behind the head even though a processor is free.
    assert out[3].start_time == 600.0


def test_easy_backfills_where_plain_fcfs_idles():
    out = run(FCFSBackfill(), workload())
    assert out[3].start_time == 2.0


def test_conservative_matches_easy_on_harmless_backfill():
    # Job 3 (50s, 1 proc) cannot delay anyone: conservative also starts it.
    out = run(ConservativeBackfill(), workload())
    assert out[3].start_time == 2.0
    assert out[2].start_time == 100.0


def test_conservative_blocks_backfill_that_delays_any_reservation():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=3),
        make_job(2, submit=1.0, runtime=500.0, procs=4),   # reservation @100
        make_job(3, submit=2.0, runtime=500.0, procs=2),   # reservation @600
        # 1-proc job for 450s: EASY lets it delay job 3's *unreserved* start;
        # conservative gave job 3 a reservation at t=600 on 2 procs, and the
        # candidate fits beside it, so both disciplines differ only via
        # planning. The giveaway case is a job that overruns the head shadow.
        make_job(4, submit=3.0, runtime=450.0, procs=1),
    ]
    easy = run(FCFSBackfill(), [j.clone() for j in jobs])
    cons = run(ConservativeBackfill(), [j.clone() for j in jobs])
    # Neither discipline may delay the head reservation.
    assert easy[2].start_time == 100.0
    assert cons[2].start_time == 100.0
    # Conservative guarantees job 3 its planned start too.
    assert cons[3].start_time <= easy[3].start_time + 1e-9


def test_conservative_head_never_delayed_by_backfill():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=3),
        make_job(2, submit=1.0, runtime=500.0, procs=4),
        make_job(3, submit=2.0, runtime=400.0, procs=1),  # would delay head
    ]
    out = run(ConservativeBackfill(), jobs)
    assert out[2].start_time == 100.0
    assert out[3].start_time >= 100.0


def test_admission_control_off_accepts_doomed_jobs():
    jobs = [
        make_job(1, submit=0.0, runtime=100.0, procs=4),
        make_job(2, submit=1.0, runtime=100.0, procs=4, deadline=50.0),  # doomed
    ]
    with_ac = run(FCFSBackfill(), [j.clone() for j in jobs])
    without_ac = run(FCFSBackfill(admission_control=False), [j.clone() for j in jobs])
    assert not with_ac[2].accepted
    assert without_ac[2].accepted
    assert not without_ac[2].deadline_met


def test_admission_control_off_degrades_reliability():
    # A stream of tight-deadline jobs through a busy machine.
    jobs = [make_job(i, submit=float(i), runtime=100.0, procs=4,
                     deadline=150.0) for i in range(1, 8)]
    svc = CommercialComputingService(
        FCFSBackfill(admission_control=False), make_model("bid"), total_procs=4
    )
    objs = svc.run(jobs).objectives()
    assert objs.reliability < 100.0
    svc2 = CommercialComputingService(
        FCFSBackfill(), make_model("bid"), total_procs=4
    )
    objs2 = svc2.run([make_job(i, submit=float(i), runtime=100.0, procs=4,
                               deadline=150.0) for i in range(1, 8)]).objectives()
    assert objs2.reliability == 100.0


def test_registry_exposes_baselines():
    assert make_policy("FCFS").name == "FCFS"
    assert make_policy("Cons-BF").name == "Cons-BF"


def test_conservative_full_workload_consistency():
    # Every job resolves (no stuck queue) on a random-ish workload.
    jobs = [make_job(i, submit=float(3 * i), runtime=50.0 + 13 * (i % 5),
                     procs=1 + (i % 4)) for i in range(1, 30)]
    out = run(ConservativeBackfill(), jobs, procs=4)
    assert len(out) == 29
    assert all(o.accepted or not o.accepted for o in out.values())
    assert all(o.finish_time is not None for o in out.values() if o.accepted)
