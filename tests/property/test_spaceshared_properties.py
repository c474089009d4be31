"""Property tests of the space-shared cluster's node pool against its reference.

Random sequences of job starts, completions, node failures, repairs,
commissions (at random SPEC ratings) and decommissions are driven on
machines built homogeneous (node tracking switched on, as the fault
injector does) and heterogeneous, over random ratings with repeats so that
speed ties fall back to node ids.  The same operations are applied to
:class:`spaceshared_reference.ReferencePool`.

After every operation the cluster's free list must equal the reference's in
order, the free processor counts must agree, and the cluster's node-to-job
map must name, for every held node, the job the reference's allocations
give it.  Every allocation's node tuple and speed must equal the
reference's bit for bit, and every failure or decommission must kill the
same job.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from spaceshared_reference import ReferencePool

from repro.cluster.node import REFERENCE_RATING
from repro.cluster.spaceshared import SpaceSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job

#: ratings drawn for nodes; the reference rating is drawn more often so that
#: machines of one rating, and ties, are common.
RATINGS = (REFERENCE_RATING, REFERENCE_RATING, REFERENCE_RATING,
           84.0, 126.0, 252.0, 336.0)

#: starts are drawn twice as often so that machines fill up.
OPS = ("start", "start", "step", "fail", "repair", "commission", "decommission")


def check_pool(cluster: SpaceSharedCluster, ref: ReferencePool) -> None:
    assert cluster._free_nodes == ref.free
    assert cluster.free_procs == ref.free_procs
    assert {n: r.job.job_id for n, r in cluster._node_job.items()} == ref.holders()
    assert {jid: r.nodes for jid, r in cluster._running.items()} == ref.allocations
    assert cluster._down == ref.down and cluster._retired == ref.retired


def up_nodes(ref: ReferencePool) -> list[int]:
    gone = ref.down | ref.retired
    return [n for n in range(len(ref.nodes)) if n not in gone]


@given(st.booleans(), st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_pool_matches_reference(homogeneous, n_nodes, data):
    sim = Simulator()
    if homogeneous:
        cluster = SpaceSharedCluster(sim, total_procs=n_nodes)
        cluster.enable_node_tracking()
        ratings = [REFERENCE_RATING] * n_nodes
    else:
        ratings = data.draw(
            st.lists(st.sampled_from(RATINGS), min_size=n_nodes, max_size=n_nodes),
            label="ratings",
        )
        cluster = SpaceSharedCluster(sim, node_ratings=ratings)
    ref = ReferencePool(ratings)
    finished: list[int] = []
    next_id = 1
    check_pool(cluster, ref)

    for _ in range(data.draw(st.integers(1, 50), label="n_ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        if op == "start":
            if cluster.free_procs == 0:
                continue
            procs = data.draw(st.integers(1, cluster.free_procs), label="procs")
            runtime = data.draw(st.floats(1.0, 1_000.0), label="runtime")
            job = Job(job_id=next_id, submit_time=sim.now, runtime=runtime,
                      estimate=runtime, procs=procs, deadline=1e9)
            next_id += 1
            record = cluster.start(job, lambda j, t: finished.append(j.job_id))
            nodes, speed = ref.allocate(job.job_id, procs)
            assert record.nodes == nodes
            assert record.speed.hex() == speed.hex()
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
            node_id = data.draw(st.sampled_from(nodes), label="node")
            killed = cluster.fail_node(node_id)
            victim = ref.fail(node_id)
            assert [job.job_id for job, _ in killed] == ([] if victim is None else [victim])
        elif op == "repair":
            if not ref.down:
                continue
            node_id = data.draw(st.sampled_from(sorted(ref.down)), label="node")
            cluster.repair_node(node_id)
            ref.repair(node_id)
        elif op == "commission":
            rating = data.draw(st.sampled_from(RATINGS), label="rating")
            assert cluster.commission_node(rating) == ref.commission(rating)
        else:
            nodes = up_nodes(ref)
            if len(nodes) < 2:
                continue
            node_id = data.draw(st.sampled_from(nodes), label="node")
            killed = cluster.decommission_node(node_id)
            victim = ref.decommission(node_id)
            assert [job.job_id for job, _ in killed] == ([] if victim is None else [victim])
        check_pool(cluster, ref)

    sim.run()
    for job_id in sorted(set(ref.allocations) - set(cluster._running)):
        ref.release(job_id)
    check_pool(cluster, ref)
    assert not cluster._node_job
