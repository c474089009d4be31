"""Unit tests for the space-shared cluster model."""

import pytest

from repro.cluster.spaceshared import SpaceSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job


def make_job(job_id=1, runtime=100.0, estimate=None, procs=4, submit=0.0):
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        estimate=estimate if estimate is not None else runtime,
        procs=procs,
        deadline=1e9,
    )


def test_start_and_finish_uses_actual_runtime():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=8)
    finished = []
    job = make_job(runtime=100.0, estimate=500.0)
    cluster.start(job, lambda j, t: finished.append((j.job_id, t)))
    assert cluster.free_procs == 4
    sim.run()
    assert finished == [(1, 100.0)]
    assert cluster.free_procs == 8


def test_cannot_start_without_processors():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=4)
    cluster.start(make_job(1, procs=3), lambda j, t: None)
    with pytest.raises(ValueError):
        cluster.start(make_job(2, procs=2), lambda j, t: None)


def test_double_start_rejected():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=8)
    cluster.start(make_job(1, procs=2), lambda j, t: None)
    with pytest.raises(ValueError):
        cluster.start(make_job(1, procs=2), lambda j, t: None)


def test_releases_report_estimated_finish():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=8)
    cluster.start(make_job(1, runtime=100.0, estimate=250.0, procs=3), lambda j, t: None)
    assert cluster.releases() == [(250.0, 3)]
    running = cluster.running()
    assert running[0].estimated_finish == 250.0


def test_running_sorted_by_estimated_finish():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=8)
    cluster.start(make_job(1, estimate=300.0, procs=1), lambda j, t: None)
    cluster.start(make_job(2, estimate=100.0, procs=1), lambda j, t: None)
    assert [r.job.job_id for r in cluster.running()] == [2, 1]


def test_utilization_and_counters():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=8)
    assert cluster.utilization() == 0.0
    cluster.start(make_job(1, procs=4), lambda j, t: None)
    assert cluster.used_procs == 4
    assert cluster.utilization() == 0.5
    assert cluster.is_running(1)
    assert not cluster.is_running(2)


def test_sequential_jobs_reuse_processors():
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=4)
    order = []

    def finish_first(job, t):
        order.append((job.job_id, t))
        cluster.start(make_job(2, runtime=50.0, procs=4), lambda j, tt: order.append((j.job_id, tt)))

    cluster.start(make_job(1, runtime=100.0, procs=4), finish_first)
    sim.run()
    assert order == [(1, 100.0), (2, 150.0)]


def test_invalid_cluster_size():
    with pytest.raises(ValueError):
        SpaceSharedCluster(Simulator(), total_procs=0)
