"""Property tests of the time-shared cluster against its reference rate rule.

Random sequences of admissions (including over-committing ones no policy
would make), completions, timer firings, clock advances, node failures,
repairs, commissions and decommissions are driven in both share modes.
After every operation the completion timer must sit at the smallest
``(eta, tick)`` over the running jobs, and after every operation that
re-rates jobs each stored rate must equal
:func:`timeshared_reference.reference_rates` bit for bit.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from timeshared_reference import reference_rates

from repro.cluster.timeshared import ShareMode, TimeSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job

#: admissions are drawn three times as often so that nodes fill up.
OPS = ("admit", "admit", "admit", "complete", "step", "advance",
       "fail", "repair", "commission", "decommission")


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


def up_nodes(cluster: TimeSharedCluster) -> list[int]:
    gone = cluster._down | cluster._retired
    return [n for n in range(len(cluster.committed)) if n not in gone]


@given(st.sampled_from(list(ShareMode)), st.data())
@settings(max_examples=150, deadline=None)
def test_rates_and_timer_match_reference(mode, data):
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=5, mode=mode)
    finished: list[int] = []
    next_id = 1
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
            runtime = data.draw(st.floats(1.0, 1_000.0), label="runtime")
            estimate = runtime * data.draw(st.floats(0.3, 2.0), label="accuracy")
            deadline = estimate * data.draw(st.floats(1.0, 6.0), label="slack")
            share = data.draw(st.floats(0.05, 1.0), label="share")
            job = Job(job_id=next_id, submit_time=sim.now, runtime=runtime,
                      estimate=estimate, procs=len(placed), deadline=deadline)
            next_id += 1
            cluster.admit(job, share, placed, lambda j, t: finished.append(j.job_id))
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
        assert cluster._over == {0, 1}
        check_rates(cluster)
        check_timer(cluster, sim)
        if mode is ShareMode.STATIC:
            assert cluster.state_of(1).rate == 0.7 / (0.7 + 0.6)
