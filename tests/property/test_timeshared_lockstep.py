"""Lockstep test of the array-backed time-shared cluster against the loop one.

:class:`timeshared_reference.ReferenceTimeSharedCluster` is the time-shared
cluster as it was before its per-job state moved into arrays.  Both are
driven, each on its own simulator, through the same random operations as
the property tests: admissions (including over-committing ones no policy
would make), completions, timer firings, clock advances, node failures,
repairs, commissions and decommissions, admission queries with and without
the risk filter, Libra+$ quotes and bursts of query-then-admit pairs at one
instant, in both share modes.  Runtimes and shares are often drawn from
a few round values, so that completions tie on their ETAs and shares fill
nodes exactly; a share may exceed 1 by the admission slack
``SHARE_EPS``, so that the cap of a rate at 1 binds.

After every operation both must run the same jobs in the same order, and
each job's rate, ETA, tick, consumed work and remaining work, the
completion timer's ``(time, seq)``, every node's share total and the jobs
finished or killed so far must agree bit for bit (floats compared by
``float.hex``).  Every query and
quote must return the same floats.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from timeshared_reference import ReferenceTimeSharedCluster

from repro.cluster.timeshared import SHARE_EPS, ShareMode, TimeSharedCluster
from repro.sim import Simulator
from repro.workload.job import Job

#: admissions are drawn three times as often so that nodes fill up.
OPS = ("admit", "admit", "admit", "complete", "step", "advance",
       "fail", "repair", "commission", "decommission",
       "feasible", "quote", "burst")


#: runtimes (and so ETAs) that tie, and shares that fill a node exactly.
RUNTIMES = st.one_of(st.floats(1.0, 1_000.0), st.sampled_from([10.0, 20.0, 100.0]))
SHARES = st.one_of(st.floats(0.05, 1.0),
                   st.sampled_from([0.25, 0.5, 1.0, 1.0 + SHARE_EPS]))


def snapshot(cluster, sim: Simulator) -> tuple:
    """Everything the two clusters must agree on, as exact strings."""
    jobs = [
        (jid, s.rate.hex(), s.eta.hex(), s.tick, s.consumed.hex(),
         float(s.remaining_work).hex())
        for jid, s in cluster._states.items()
    ]
    timer = cluster._timer
    armed = None if timer is None else (float(timer.time).hex(), timer.seq,
                                        timer.args[0].job.job_id)
    return (float(sim.now).hex(), sim.pending(), jobs, armed,
            [float(t).hex() for t in cluster._total],
            sorted(cluster._down), sorted(cluster._retired))


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(st.sampled_from(list(ShareMode)), st.data())
@settings(max_examples=150, deadline=None)
def test_array_cluster_runs_in_lockstep_with_reference(mode, data):
    sims = (Simulator(), Simulator())
    fast = TimeSharedCluster(sims[0], total_procs=5, mode=mode)
    ref = ReferenceTimeSharedCluster(sims[1], total_procs=5, mode=mode)
    pair = ((fast, sims[0]), (ref, sims[1]))
    finished: tuple[list, list] = ([], [])
    next_id = 1

    def draw_job(procs: int) -> Job:
        nonlocal next_id
        runtime = data.draw(RUNTIMES, label="runtime")
        estimate = runtime * data.draw(st.floats(0.3, 2.0), label="accuracy")
        deadline = estimate * data.draw(st.floats(1.0, 6.0), label="slack")
        job = Job(job_id=next_id, submit_time=sims[0].now, runtime=runtime,
                  estimate=estimate, procs=procs, deadline=deadline)
        next_id += 1
        return job

    def recorder(log: list):
        return lambda job, time: log.append((job.job_id, float(time).hex()))

    on_finish = (recorder(finished[0]), recorder(finished[1]))

    def admit(job: Job, share: float, nodes: list[int]) -> None:
        for (cluster, _), done in zip(pair, on_finish):
            cluster.admit(job, share, nodes, done)

    def feasible(share: float, exclude_risky: bool) -> list[int]:
        got, want = (c.feasible_nodes(share, exclude_risky=exclude_risky)
                     for c, _ in pair)
        assert got == want
        return got

    def up_nodes() -> list[int]:
        gone = fast._down | fast._retired
        return [n for n in range(len(fast.node_jobs)) if n not in gone]

    for _ in range(data.draw(st.integers(1, 40), label="n_ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        if op == "admit":
            nodes = up_nodes()
            if not nodes:
                continue
            placed = data.draw(
                st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True),
                label="nodes",
            )
            job = draw_job(len(placed))
            admit(job, data.draw(SHARES, label="share"), placed)
        elif op == "feasible":
            feasible(data.draw(st.floats(0.01, 1.0), label="share"),
                     data.draw(st.booleans(), label="risky"))
        elif op == "quote":
            nodes = data.draw(
                st.lists(st.sampled_from(range(len(fast.node_jobs))),
                         min_size=1, max_size=3, unique=True),
                label="nodes",
            )
            window = data.draw(st.floats(1.0, 5_000.0), label="window")
            got, want = (hexes(c.committed_seconds(nodes, window)) for c, _ in pair)
            assert got == want
        elif op == "burst":
            exclude_risky = data.draw(st.booleans(), label="risky")
            for _ in range(data.draw(st.integers(2, 4), label="burst")):
                share = data.draw(st.floats(0.01, 0.6), label="share")
                fits = feasible(share, exclude_risky)
                procs = data.draw(st.integers(1, 3), label="procs")
                if len(fits) >= procs:
                    admit(draw_job(procs), share, fits[:procs])
                assert snapshot(fast, sims[0]) == snapshot(ref, sims[1])
        elif op == "complete":
            running = list(fast._states)
            if not running:
                continue
            jid = data.draw(st.sampled_from(running), label="job")
            for cluster, _ in pair:
                cluster._complete(cluster._states[jid])
        elif op == "step":
            stepped = [sim.step() for _, sim in pair]
            assert stepped[0] == stepped[1]
        elif op == "advance":
            until = sims[0].now + data.draw(st.floats(0.0, 500.0), label="dt")
            for _, sim in pair:
                sim.run(until=until)
        elif op == "fail":
            nodes = up_nodes()
            if not nodes:
                continue
            node = data.draw(st.sampled_from(nodes), label="node")
            got, want = ([(job.job_id, progress.hex()) for job, progress in c.fail_node(node)]
                         for c, _ in pair)
            assert got == want
        elif op == "repair":
            if not fast._down:
                continue
            node = data.draw(st.sampled_from(sorted(fast._down)), label="node")
            for cluster, _ in pair:
                cluster.repair_node(node)
        elif op == "commission":
            assert fast.commission_node() == ref.commission_node()
        else:
            nodes = up_nodes()
            if len(nodes) < 2:
                continue
            node = data.draw(st.sampled_from(nodes), label="node")
            got, want = ([(job.job_id, progress.hex())
                          for job, progress in c.decommission_node(node)]
                         for c, _ in pair)
            assert got == want
        assert snapshot(fast, sims[0]) == snapshot(ref, sims[1])
        assert finished[0] == finished[1]
    for _, sim in pair:
        sim.run()
    assert snapshot(fast, sims[0]) == snapshot(ref, sims[1])
    assert finished[0] == finished[1]
    assert not fast.active_jobs()
