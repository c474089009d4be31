"""Property-based tests for the simulation substrates."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profile import earliest_start_time, easy_backfill_window
from repro.cluster.timeshared import SHARE_EPS, TimeSharedCluster
from repro.economy.penalty import linear_utility
from repro.sim import Simulator
from repro.workload.job import Job
from repro.workload.swf import job_to_record, record_to_job


@given(st.lists(st.tuples(st.floats(0.0, 1e6, allow_nan=False), st.integers(0, 3)),
                min_size=0, max_size=24))
def test_simulator_executes_in_nondecreasing_time_order(events):
    sim = Simulator()
    fired = []
    for t, prio in events:
        sim.schedule_at(t, lambda t=t, p=prio: fired.append((sim.now, p)))
    sim.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert len(fired) == len(events)


release_lists = st.lists(
    st.tuples(st.floats(0.0, 1e5, allow_nan=False), st.integers(1, 16)),
    min_size=0, max_size=10,
)


@given(release_lists, st.integers(1, 64))
def test_earliest_start_monotone_in_procs(releases, procs):
    total = sum(n for _, n in releases) + 16
    free = 16
    t_small = earliest_start_time(0.0, free, releases, min(procs, total), total)
    t_big = earliest_start_time(0.0, free, releases, total, total)
    assert t_small <= t_big
    assert t_small >= 0.0


@given(release_lists, st.integers(1, 16))
def test_backfill_window_shadow_not_before_now(releases, anchor):
    total = sum(n for _, n in releases) + 16
    now = 50.0
    shadow, spare = easy_backfill_window(now, 16, sorted(releases), anchor, total)
    assert shadow >= now
    assert 0 <= spare <= total


@given(
    st.floats(0.1, 1e5),          # runtime
    st.floats(1.0, 1e5),          # deadline
    st.floats(0.0, 1e4),          # budget
    st.floats(0.0, 10.0),         # penalty rate
    st.floats(0.0, 2e5),          # lateness offset
)
def test_penalty_never_exceeds_budget_and_linear(runtime, deadline, budget, pr, offset):
    job = Job(job_id=1, submit_time=0.0, runtime=runtime, estimate=runtime,
              procs=1, deadline=deadline, budget=budget, penalty_rate=pr)
    on_time = linear_utility(job, deadline * 0.5)
    assert on_time == budget  # utility capped at the bid
    late = linear_utility(job, deadline + offset)
    assert late <= budget + 1e-9
    # Linearity: doubling the delay doubles the loss.
    u1 = linear_utility(job, deadline + offset)
    u2 = linear_utility(job, deadline + 2 * offset)
    loss1, loss2 = budget - u1, budget - u2
    assert math.isclose(loss2, 2 * loss1, rel_tol=1e-9, abs_tol=1e-6)


@given(
    st.lists(
        st.tuples(
            st.floats(10.0, 500.0),   # runtime
            st.floats(1.1, 8.0),      # deadline factor
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60, deadline=None)
def test_timeshared_rates_never_oversubscribe_a_node(job_params):
    sim = Simulator()
    cluster = TimeSharedCluster(sim, total_procs=1)
    admitted = 0
    for i, (runtime, factor) in enumerate(job_params, start=1):
        deadline = runtime * factor
        share = runtime / deadline
        if cluster.node_share_load(0) + share <= 1.0 + SHARE_EPS:
            job = Job(job_id=i, submit_time=0.0, runtime=runtime,
                      estimate=runtime, procs=1, deadline=deadline)
            cluster.admit(job, share, [0], lambda j, t: None)
            admitted += 1
    # Invariant: the sum of instantaneous rates on the node never exceeds 1.
    total_rate = sum(s.rate for s in cluster.active_jobs())
    assert total_rate <= 1.0 + 1e-6
    # Invariant: with accurate estimates every admitted job meets its deadline.
    done = {}
    for s in cluster.active_jobs():
        s._on_finish = lambda j, t: done.__setitem__(j.job_id, t)
    sim.run()
    assert len(done) == admitted
    for s_id, finish in done.items():
        job = next(j for j, (r, f) in enumerate(job_params, start=1) if j == s_id)
    # deadlines checked per job:
    for i, (runtime, factor) in enumerate(job_params, start=1):
        if i in done:
            assert done[i] <= runtime * factor + 1e-6


@given(
    st.integers(1, 10_000),
    st.floats(0.0, 1e6, allow_nan=False),
    st.floats(1.0, 1e5),
    st.floats(1.0, 2e5),
    st.integers(1, 128),
)
def test_swf_record_roundtrip(job_id, submit, runtime, estimate, procs):
    job = Job(job_id=job_id, submit_time=submit, runtime=runtime,
              estimate=estimate, procs=procs)
    back = record_to_job(job_to_record(job))
    assert back is not None
    assert back.job_id == job.job_id
    assert math.isclose(back.runtime, job.runtime, rel_tol=1e-12)
    assert math.isclose(back.estimate, job.trace_estimate, rel_tol=1e-12)
    assert back.procs == job.procs
