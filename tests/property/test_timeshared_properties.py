"""Property tests of the time-shared cluster against its reference rules.

Random sequences of admissions (including over-committing ones no policy
would make), completions, timer firings, clock advances, node failures,
repairs, commissions and decommissions are driven in both share modes,
together with admission queries (``feasible_nodes``, with and without the
risk filter), Libra+$ quotes (``committed_seconds``) and bursts of
query-then-admit pairs at one instant.

After every operation the completion timer must sit at the smallest
``(eta, tick)`` over the running jobs.  After every operation that re-rates
jobs each stored rate must equal
:func:`timeshared_reference.reference_rates` bit for bit, and every
occupied node's share total must equal a fresh sum in admission order;
queries and quotes must equal their references exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from timeshared_reference import (
    admission_fold,
    reference_committed_seconds,
    reference_feasible_nodes,
    reference_rates,
    reference_shares,
)

from repro.cluster.timeshared import SHARE_EPS, ShareMode, TimeSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job

#: admissions are drawn three times as often so that nodes fill up.
OPS = ("admit", "admit", "admit", "complete", "step", "advance",
       "fail", "repair", "commission", "decommission",
       "feasible", "quote", "burst")


def check_timer(cluster: TimeSharedCluster, sim: Simulator) -> None:
    states = list(cluster._states.values())
    timer = cluster._timer
    if not states:
        assert timer is None
        assert sim.pending() == 0
        return
    assert timer is not None and not timer.cancelled and not timer.fired
    assert sim.pending() == 1
    key = (timer.time, timer.seq)
    assert all(key <= (s.eta, s.tick) for s in states)
    (head,) = timer.args
    assert head in states and (head.eta, head.tick) == key
    assert len({s.tick for s in states}) == len(states)


def check_rates(cluster: TimeSharedCluster) -> None:
    got = {jid: s.rate.hex() for jid, s in cluster._states.items()}
    want = {jid: r.hex() for jid, r in reference_rates(cluster).items()}
    assert got == want


def check_totals(cluster: TimeSharedCluster) -> None:
    """Right after a re-rate, occupied nodes: totals and the overcommitted
    set match the shares summed in admission order.  Empty nodes: total 0,
    no bonus, not overcommitted."""
    share = reference_shares(cluster, cluster.sim.now).__getitem__
    for node, members in enumerate(cluster.node_jobs):
        total = cluster._total[node]
        if not members:
            assert total == 0.0 and cluster._bonus[node] == float("inf")
            assert not cluster._over[node]
            continue
        assert total.hex() == admission_fold(cluster._states, members, share).hex()
        assert cluster._over[node] == (total > 1.0 + SHARE_EPS)


def check_feasible(cluster: TimeSharedCluster, share: float,
                   exclude_risky: bool) -> list[int]:
    got = cluster.feasible_nodes(share, exclude_risky=exclude_risky)
    assert got == reference_feasible_nodes(cluster, share, exclude_risky)
    return got


def up_nodes(cluster: TimeSharedCluster) -> list[int]:
    gone = cluster._down | cluster._retired
    return [n for n in range(len(cluster.node_jobs)) if n not in gone]


@given(st.sampled_from(list(ShareMode)), st.data())
@settings(max_examples=150, deadline=None)
def test_rates_and_timer_match_reference(mode, data):
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=5, mode=mode)
    finished: list[int] = []
    next_id = 1

    def draw_job(procs: int) -> Job:
        nonlocal next_id
        runtime = data.draw(st.floats(1.0, 1_000.0), label="runtime")
        estimate = runtime * data.draw(st.floats(0.3, 2.0), label="accuracy")
        deadline = estimate * data.draw(st.floats(1.0, 6.0), label="slack")
        job = Job(job_id=next_id, submit_time=sim.now, runtime=runtime,
                  estimate=estimate, procs=procs, deadline=deadline)
        next_id += 1
        return job

    def on_finish(job: Job, _time: float) -> None:
        finished.append(job.job_id)

    for _ in range(data.draw(st.integers(1, 40), label="n_ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        rerated = True
        if op == "admit":
            nodes = up_nodes(cluster)
            if not nodes:
                continue
            placed = data.draw(
                st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True),
                label="nodes",
            )
            job = draw_job(len(placed))
            share = data.draw(st.floats(0.05, 1.0), label="share")
            cluster.admit(job, share, placed, on_finish)
        elif op == "feasible":
            share = data.draw(st.floats(0.01, 1.0), label="share")
            check_feasible(cluster, share, data.draw(st.booleans(), label="risky"))
            # A query integrates progress but re-rates nothing.
            rerated = mode is ShareMode.STATIC
        elif op == "quote":
            nodes = data.draw(
                st.lists(st.sampled_from(range(len(cluster.node_jobs))),
                         min_size=1, max_size=3, unique=True),
                label="nodes",
            )
            window = data.draw(st.floats(1.0, 5_000.0), label="window")
            got = cluster.committed_seconds(nodes, window)
            want = [reference_committed_seconds(cluster, n, window) for n in nodes]
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
            rerated = mode is ShareMode.STATIC
        elif op == "burst":
            # Policy-style admissions at one instant: each query sees the
            # loads left by the admissions before it.
            exclude_risky = data.draw(st.booleans(), label="risky")
            admitted = False
            for _ in range(data.draw(st.integers(2, 4), label="burst")):
                share = data.draw(st.floats(0.01, 0.6), label="share")
                fits = check_feasible(cluster, share, exclude_risky)
                procs = data.draw(st.integers(1, 3), label="procs")
                if len(fits) >= procs:
                    cluster.admit(draw_job(procs), share, fits[:procs], on_finish)
                    admitted = True
            # A burst in which nothing fitted made queries only.
            rerated = admitted or mode is ShareMode.STATIC
        elif op == "complete":
            running = cluster.active_jobs()
            if not running:
                continue
            cluster._complete(data.draw(st.sampled_from(running), label="job"))
        elif op == "step":
            if not sim.step():
                continue
        elif op == "advance":
            sim.run(until=sim.now + data.draw(st.floats(0.0, 500.0), label="dt"))
            # Dynamic rates are re-derived only at events, so they lag the
            # clock until the next re-rating operation.
            rerated = mode is ShareMode.STATIC
        elif op == "fail":
            nodes = up_nodes(cluster)
            if not nodes:
                continue
            cluster.fail_node(data.draw(st.sampled_from(nodes), label="node"))
        elif op == "repair":
            if not cluster._down:
                continue
            cluster.repair_node(data.draw(st.sampled_from(sorted(cluster._down)),
                                          label="node"))
            rerated = mode is ShareMode.STATIC
        elif op == "commission":
            cluster.commission_node()
            rerated = mode is ShareMode.STATIC
        else:
            nodes = up_nodes(cluster)
            if len(nodes) < 2:
                continue
            cluster.decommission_node(data.draw(st.sampled_from(nodes), label="node"))
        check_timer(cluster, sim)
        if rerated:
            check_rates(cluster)
            check_totals(cluster)
    sim.run()
    assert not cluster.active_jobs()
    assert cluster._timer is None
    assert len(finished) == len(set(finished))


def test_overcommitted_node_scales_shares_by_total():
    """Admission bypassing ``feasible_nodes`` can overcommit a node; each job
    then runs at ``share / total`` there, in both modes."""
    for mode in ShareMode:
        sim = Simulator()
        cluster = TimeSharedCluster(sim, total_procs=2, mode=mode)
        for jid, share in ((1, 0.7), (2, 0.6)):
            job = Job(job_id=jid, submit_time=0.0, runtime=100.0, estimate=100.0,
                      procs=2, deadline=100.0 / share)
            cluster.admit(job, share, [0, 1], lambda j, t: None)
        assert cluster._over.nonzero()[0].tolist() == [0, 1]
        check_rates(cluster)
        check_timer(cluster, sim)
        if mode is ShareMode.STATIC:
            assert cluster.state_of(1).rate == 0.7 / (0.7 + 0.6)
