"""Property tests of the space-shared cluster's node pool against its reference.

Random sequences of job starts, completions, node failures (one node, or
a batch of up to three failed in one call), repairs, commissions and
decommissions are driven on a machine with node tracking switched on, as
the fault injector does.  The same operations are applied to
:class:`spaceshared_reference.ReferencePool`.

After every operation the cluster's free list must equal the reference's in
order, the free processor counts must agree, and the cluster's node-to-job
map must name, for every held node, the job the reference's allocations
give it.  Every allocation's node tuple must equal the reference's, and
every failure or decommission must kill the same job.

The cluster's sorted release list is checked on the same sequences, and
on an untracked machine driven by starts and completions: after every
operation :meth:`SpaceSharedCluster.releases` must equal the
``(start + estimate, procs)`` pairs of the running jobs, sorted.
Most estimates differ from runtimes, and half the starts are killed at their
estimate, so finishes fall before and after the actual completions.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from spaceshared_reference import ReferencePool

from repro.cluster.spaceshared import SpaceSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job

#: starts are drawn twice as often so that machines fill up.
OPS = ("start", "start", "step", "fail", "repair", "commission", "decommission")


def check_pool(cluster: SpaceSharedCluster, ref: ReferencePool) -> None:
    assert cluster._free_nodes == ref.free
    assert cluster.free_procs == ref.free_procs
    assert {n: r.job.job_id for n, r in cluster._node_job.items()} == ref.holders()
    assert {jid: r.nodes for jid, r in cluster._running.items()} == ref.allocations
    assert cluster._down == ref.down and cluster._retired == ref.retired


def check_releases(cluster: SpaceSharedCluster) -> None:
    assert cluster.releases() == sorted(
        (r.start_time + r.job.estimate, r.job.procs)
        for r in cluster._running.values()
    )


def start_job(cluster, sim, job_id, data, finished):
    """Start a random job on ``cluster`` (which must have a free processor)."""
    procs = data.draw(st.integers(1, cluster.free_procs), label="procs")
    runtime = data.draw(st.floats(1.0, 1_000.0), label="runtime")
    estimate = data.draw(st.sampled_from([runtime, 100.0, 500.0]), label="estimate")
    job = Job(job_id=job_id, submit_time=sim.now, runtime=runtime,
              estimate=estimate, procs=procs, deadline=1e9)
    max_runtime = data.draw(st.sampled_from([None, estimate]), label="max_runtime")
    return cluster.start(job, lambda j, t: finished.append(j.job_id), max_runtime)


def up_nodes(ref: ReferencePool) -> list[int]:
    gone = ref.down | ref.retired
    return [n for n in range(ref.n_nodes) if n not in gone]


@given(st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_pool_matches_reference(n_nodes, data):
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=n_nodes)
    cluster.enable_node_tracking()
    ref = ReferencePool(n_nodes)
    finished: list[int] = []
    next_id = 1
    check_pool(cluster, ref)
    check_releases(cluster)

    for _ in range(data.draw(st.integers(1, 50), label="n_ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        if op == "start":
            if cluster.free_procs == 0:
                continue
            record = start_job(cluster, sim, next_id, data, finished)
            next_id += 1
            assert record.nodes == ref.allocate(record.job.job_id, record.job.procs)
        elif op == "step":
            before = len(finished)
            if not sim.step():
                continue
            assert len(finished) == before + 1
            ref.release(finished[-1])
        elif op == "fail":
            nodes = up_nodes(ref)
            if not nodes:
                continue
            batch = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3,
                                       unique=True), label="batch")
            killed = cluster.fail_node(batch[0] if len(batch) == 1 else tuple(batch))
            victims = [ref.fail(node_id) for node_id in batch]
            assert [job.job_id for job, _ in killed] == [v for v in victims if v is not None]
        elif op == "repair":
            if not ref.down:
                continue
            node_id = data.draw(st.sampled_from(sorted(ref.down)), label="node")
            cluster.repair_node(node_id)
            ref.repair(node_id)
        elif op == "commission":
            assert cluster.commission_node() == ref.commission()
        else:
            nodes = up_nodes(ref)
            if len(nodes) < 2:
                continue
            node_id = data.draw(st.sampled_from(nodes), label="node")
            killed = cluster.decommission_node(node_id)
            victim = ref.decommission(node_id)
            assert [job.job_id for job, _ in killed] == ([] if victim is None else [victim])
        check_pool(cluster, ref)
        check_releases(cluster)

    sim.run()
    for job_id in sorted(set(ref.allocations) - set(cluster._running)):
        ref.release(job_id)
    check_pool(cluster, ref)
    assert not cluster._node_job
    assert cluster.releases() == []


@given(st.integers(1, 10), st.data())
@settings(max_examples=100, deadline=None)
def test_untracked_releases_stay_sorted(n_nodes, data):
    sim = Simulator()
    cluster = SpaceSharedCluster(sim, total_procs=n_nodes)
    finished: list[int] = []
    for job_id in range(1, data.draw(st.integers(1, 40), label="n_ops") + 1):
        if cluster.free_procs and data.draw(st.booleans(), label="start"):
            start_job(cluster, sim, job_id, data, finished)
        elif not sim.step():
            continue
        check_releases(cluster)
    sim.run()
    assert cluster.releases() == []
