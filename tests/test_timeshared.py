"""Unit tests for the time-shared (proportional-share) cluster model."""

import pytest

from repro.cluster.timeshared import ShareMode, TimeSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job


def make_job(job_id=1, runtime=100.0, estimate=None, procs=1, submit=0.0, deadline=400.0):
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        procs=procs,
        deadline=deadline,
    )


def run_one(cluster, sim, job, share, nodes):
    finished = []
    cluster.admit(job, share, nodes, lambda j, t: finished.append((j.job_id, t)))
    sim.run()
    return finished


def test_single_job_gets_full_node():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=4)
    # Share 0.25 committed, but the job is alone: rate = share + free = 1.0.
    finished = run_one(cluster, sim, make_job(runtime=100.0), 0.25, [0])
    assert finished == [(1, pytest.approx(100.0))]


def test_two_jobs_share_capacity():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1)
    done = []
    j1 = make_job(1, runtime=100.0, deadline=400.0)
    j2 = make_job(2, runtime=100.0, deadline=400.0)
    cluster.admit(j1, 0.5, [0], lambda j, t: done.append((j.job_id, t)))
    cluster.admit(j2, 0.5, [0], lambda j, t: done.append((j.job_id, t)))
    sim.run()
    # Each gets rate 0.5 + 0/2 = 0.5 -> 200 s apiece.
    assert done[0] == (1, pytest.approx(200.0))
    assert done[1] == (2, pytest.approx(200.0))


def test_free_capacity_redistributed():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1)
    done = []
    # Committed shares 0.25 each; free 0.5 split between 2 jobs => rate 0.5.
    for jid in (1, 2):
        cluster.admit(
            make_job(jid, runtime=100.0, deadline=400.0), 0.25, [0],
            lambda j, t: done.append((j.job_id, t)),
        )
    sim.run()
    assert done[0][1] == pytest.approx(200.0)


def test_completion_releases_share_and_speeds_up_rest():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1)
    done = {}
    cluster.admit(make_job(1, runtime=50.0, deadline=400.0), 0.5, [0],
                  lambda j, t: done.setdefault(j.job_id, t))
    cluster.admit(make_job(2, runtime=100.0, deadline=400.0), 0.5, [0],
                  lambda j, t: done.setdefault(j.job_id, t))
    sim.run()
    # Both run at 0.5 until job 1 finishes at t=100 (50/0.5); job 2 has 50
    # work left and then runs alone at rate 1 -> finishes at 150.
    assert done[1] == pytest.approx(100.0)
    assert done[2] == pytest.approx(150.0)


def test_parallel_job_gang_rate_is_min_over_nodes():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=2)
    done = {}
    # Competitor on node 0 squeezes the parallel job's rate there.
    cluster.admit(make_job(1, runtime=100.0, deadline=400.0), 0.5, [0],
                  lambda j, t: done.setdefault(j.job_id, t))
    cluster.admit(make_job(2, runtime=100.0, procs=2, deadline=400.0), 0.5, [0, 1],
                  lambda j, t: done.setdefault(j.job_id, t))
    sim.run()
    # On node 0 both jobs run at 0.5; on node 1 job 2 would get 1.0 alone,
    # but gang progress = min(0.5, 1.0) = 0.5 -> 200 s.
    assert done[2] == pytest.approx(200.0)


def test_feasible_nodes_respect_capacity():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=2)
    cluster.admit(make_job(1, runtime=100.0, deadline=125.0), 0.8, [0], lambda j, t: None)
    assert cluster.feasible_nodes(0.5) == [1]
    assert cluster.feasible_nodes(0.1) == [0, 1]  # best fit: node 0 fuller


def test_best_fit_prefers_most_loaded_feasible_node():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=3)
    cluster.admit(make_job(1, runtime=10.0, deadline=100.0), 0.6, [0], lambda j, t: None)
    cluster.admit(make_job(2, runtime=10.0, deadline=100.0), 0.3, [1], lambda j, t: None)
    nodes = cluster.feasible_nodes(0.3)
    assert nodes == [0, 1, 2]


def test_admission_validation():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=2)
    job = make_job(1, procs=2)
    with pytest.raises(ValueError):
        cluster.admit(job, 0.5, [0], lambda j, t: None)  # wrong node count
    with pytest.raises(ValueError):
        cluster.admit(job, 0.5, [0, 0], lambda j, t: None)  # duplicate nodes
    with pytest.raises(ValueError):
        cluster.admit(job, 0.0, [0, 1], lambda j, t: None)  # zero share
    cluster.admit(job, 0.5, [0, 1], lambda j, t: None)
    with pytest.raises(ValueError):
        cluster.admit(job, 0.5, [0, 1], lambda j, t: None)  # already running


def test_underestimated_job_flags_risk_in_dynamic_mode():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1, mode=ShareMode.DYNAMIC)
    # Estimate 50 but actual 100: past its estimate halfway through.
    job = make_job(1, runtime=100.0, estimate=50.0, deadline=400.0)
    cluster.admit(job, 0.5, [0], lambda j, t: None)
    sim.run(until=60.0)
    assert cluster.node_has_risk(0)
    sim.run()
    assert not cluster.node_has_risk(0)  # finished, risk cleared


def test_static_mode_never_reports_risk_based_load():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1, mode=ShareMode.STATIC)
    job = make_job(1, runtime=100.0, estimate=100.0, deadline=200.0)
    cluster.admit(job, 0.5, [0], lambda j, t: None)
    assert cluster.node_share_load(0) == pytest.approx(0.5)


def test_dynamic_load_shrinks_as_job_progresses():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1, mode=ShareMode.DYNAMIC)
    # Needs 100s of work in a 200s window: required rate 0.5 at t=0.
    job = make_job(1, runtime=100.0, estimate=100.0, deadline=200.0)
    cluster.admit(job, 0.5, [0], lambda j, t: None)
    assert cluster.node_share_load(0) == pytest.approx(0.5)
    sim.run(until=50.0)
    # Ran alone at rate 1.0: 50 work left, 150s window -> 1/3 required.
    assert cluster.node_share_load(0) == pytest.approx(50.0 / 150.0, rel=1e-6)


def test_committed_seconds_counts_each_share_until_its_deadline():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=3)
    # Job 1 holds 0.5 on nodes 0 and 1 until t=400; job 2 holds 0.25 on
    # node 1 until t=100, so it occupies only part of a 300 s window.
    cluster.admit(make_job(1, runtime=200.0, procs=2, deadline=400.0),
                  0.5, [0, 1], lambda j, t: None)
    cluster.admit(make_job(2, runtime=25.0, deadline=100.0), 0.25, [1], lambda j, t: None)
    assert cluster.committed_seconds([0, 1, 2], 300.0) == [150.0, 175.0, 0.0]
    assert cluster.committed_seconds([1], 50.0) == [37.5]


def test_dynamic_load_and_risk_are_rederived_after_the_clock_moves():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1, mode=ShareMode.DYNAMIC)
    cluster.admit(make_job(1, runtime=100.0, estimate=50.0, deadline=200.0),
                  0.25, [0], lambda j, t: None)
    assert cluster.node_share_load(0) == 0.25
    assert not cluster.node_has_risk(0)
    # A second admission at the same instant adds to the kept load.
    cluster.admit(make_job(2, runtime=10.0, deadline=100.0), 0.1, [0], lambda j, t: None)
    assert cluster.node_share_load(0) == 0.25 + 0.1
    sim.run(until=80.0)
    # Job 2 has finished, and job 1 has run past its 50 s estimate.
    assert cluster.node_share_load(0) == 0.0
    assert cluster.node_has_risk(0)


def test_utilization_tracks_commitments():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=4)
    assert cluster.utilization() == 0.0
    cluster.admit(make_job(1, procs=2, deadline=400.0), 0.5, [0, 1], lambda j, t: None)
    assert cluster.utilization() == pytest.approx(0.25)
    assert cluster.total_committed() == pytest.approx(1.0)


def test_deadline_met_with_exact_share():
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1)
    done = {}
    # Three jobs, each needing share 1/3 to meet its deadline exactly.
    for jid in (1, 2, 3):
        job = make_job(jid, runtime=100.0, deadline=300.0)
        cluster.admit(job, 100.0 / 300.0, [0], lambda j, t: done.setdefault(j.job_id, t))
    sim.run()
    for jid in (1, 2, 3):
        assert done[jid] <= 300.0 + 1e-6


def test_invalid_cluster_size():
    with pytest.raises(ValueError):
        TimeSharedCluster(Simulator(), total_procs=0)


def test_same_instant_completions_fire_in_eta_order():
    """Ties on the finish time go to the job whose ETA was set first, even
    when it was admitted later."""
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=2)
    done = []
    record = lambda j, t: done.append((j.job_id, t))  # noqa: E731
    cluster.admit(make_job(1, runtime=100.0), 0.5, [0], record)
    cluster.admit(make_job(2, runtime=110.0), 0.5, [1], record)
    # Job 3 halves job 1's rate until t=20; job 1 is then re-rated to
    # finish at 20 + 90 = 110, the instant job 2 was set to finish at.
    cluster.admit(make_job(3, runtime=10.0), 0.5, [0], record)
    sim.run()
    assert done == [(3, 20.0), (2, 110.0), (1, 110.0)]


def test_same_instant_completions_across_clusters_keep_event_order():
    """Clusters sharing a simulator interleave same-instant completions in
    the order their ETAs were set, as one event per job would."""
    sim = Simulator()
    x = TimeSharedCluster(sim, total_procs=2)
    y = TimeSharedCluster(sim, total_procs=1)
    done = []
    record = lambda j, t: done.append(j.job_id)  # noqa: E731
    x.admit(make_job(1), 0.25, [0], record)
    x.admit(make_job(2), 0.25, [1], record)
    y.admit(make_job(3), 0.25, [0], record)
    sim.run()
    assert done == [1, 2, 3]
