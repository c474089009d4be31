"""Property tests of the queue-based dispatchers against their reference loop.

Random job streams — bursts of same-instant arrivals, under- and
over-estimated runtimes, deadlines already infeasible at submission,
budgets near the quote — run through FCFS-BF, SJF-BF, EDF-BF, FCFS and
Cons-BF and through :mod:`backfill_reference`, with scripted node
failures and repairs under both recovery modes, scripted elastic
capacity (commissions, and decommissions that may or may not kill a job),
a time-of-day tariff and the policies' ablation switches.

Within each instant the fast path must start the same jobs in the same
order and drop (reject or fail) the same jobs in the same order as the
reference, and every SLA must end with the same bit-exact outcome.  Only
the interleaving of drops with starts inside one instant may differ.  The
fast path's list of priority keys must match its queue whenever the
service reports an event.
"""

from __future__ import annotations

from itertools import groupby

from backfill_reference import reference_policy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.economy.models import make_model
from repro.economy.pricing import TimeOfDayPricing
from repro.faults.config import FaultConfig
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from repro.workload.job import Job

PROCS = 6
POLICIES = ("FCFS-BF", "SJF-BF", "EDF-BF", "FCFS", "Cons-BF")
#: a one-hour peak early in the run, so queued jobs see the price change.
TARIFF = TimeOfDayPricing(peak_multiplier=2.0, peak_start_hour=1.0, peak_end_hour=2.0)

jobs_strategy = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 60.0, 600.0]),  # gap to the previous arrival
        st.floats(1.0, 3_000.0),                        # runtime
        st.floats(0.3, 3.0),                            # estimate / runtime
        st.integers(1, PROCS),                          # processors
        st.floats(0.5, 6.0),                            # deadline / estimate
        st.floats(0.8, 3.0),                            # budget / flat quote
    ),
    min_size=1,
    max_size=25,
)

outages_strategy = st.lists(
    st.tuples(st.integers(0, PROCS - 1), st.floats(0.0, 8_000.0), st.floats(1.0, 4_000.0)),
    max_size=4,
)

#: (time, nodes added (> 0) or retired (< 0)); retirements beyond the
#: nodes added so far are clipped, as only added nodes can go.
elastic_strategy = st.lists(
    st.tuples(st.floats(0.0, 8_000.0), st.sampled_from([1, 2, -1, -1, -2])),
    max_size=4,
)

#: the overdue-release workload of ``test_backfill_policies`` on four
#: processors: at job 5's arrival both running jobs are past their
#: estimates, so the head's shadow has moved to ``now`` and the older job
#: 4 takes the spare processor.
OVERDUE_RELEASE = [
    # (gap, runtime, estimate / runtime, procs, deadline / estimate, budget / quote)
    (0.0, 100.0, 0.1, 2, 1e5, 1e3),
    (0.0, 100.0, 0.2, 1, 5e4, 1e3),
    (1.0, 10.0, 1.0, 3, 1e5, 1e3),
    (1.0, 100.0, 1.0, 1, 1e4, 1e3),
    (23.0, 5.0, 1.0, 1, 2e5, 1e3),
]

#: four processors plus one added at 0 s and retired, free, at 4 s.  The
#: retirement dispatches nothing, yet with one processor fewer the head's
#: shadow moves from 11 to 21 s, so at job 5's arrival the older job 4
#: (due at 20 s) fits before it.
SHRUNK_MACHINE = [
    (1.0, 100.0, 0.1, 1, 1e5, 1e3),
    (0.0, 100.0, 0.2, 2, 5e4, 1e3),
    (1.0, 10.0, 1.0, 3, 1e5, 1e3),
    (1.0, 15.0, 1.0, 1, 1e5, 1e3),
    (2.0, 5.0, 1.0, 2, 2e5, 1e3),
]
FLAT = {"admission_control": True, "kill_at_estimate": False, "tariff": None}


def build_jobs(raw) -> list[Job]:
    jobs, now = [], 0.0
    for job_id, (gap, runtime, accuracy, procs, slack, thrift) in enumerate(raw, 1):
        now += gap
        estimate = runtime * accuracy
        jobs.append(Job(job_id=job_id, submit_time=now, runtime=runtime,
                        estimate=estimate, procs=procs, deadline=estimate * slack,
                        budget=estimate * thrift, penalty_rate=0.5))
    return jobs


def fault_config(outages, recovery, elastic=()):
    """A scripted schedule of the outages that do not overlap on one node,
    and of the capacity changes that never retire a base node."""
    schedule, up_again = [], {}
    for node, start, length in sorted(outages, key=lambda o: o[1]):
        if start > up_again.get(node, -1.0):
            schedule.append((start, node, length))
            up_again[node] = start + length
    changes, extra = [], 0
    for time, delta in sorted(elastic):
        delta = max(delta, -extra)
        if delta:
            changes.append((time, delta))
            extra += delta
    if not schedule and not changes:
        return None
    return FaultConfig(enabled=True, model="scripted", schedule=tuple(schedule),
                       recovery=recovery, checkpoint_interval=300.0,
                       elastic_model="scripted" if changes else "none",
                       elastic_schedule=tuple(changes))


def assert_keys_match_queue(policy):
    assert policy._keys == [policy.priority_key(job) for job in policy._queue]


def run_log(policy, jobs, model, faults, procs=PROCS, check_keys=False):
    """Per-instant (starts, drops) logs and the final outcome of every SLA."""
    service = CommercialComputingService(policy, make_model(model), total_procs=procs,
                                         fault_config=faults)
    log = []

    def observe(event, record):
        if check_keys:
            assert_keys_match_queue(policy)
        if event == "rejected":
            log.append((service.sim.now, "drop", record.job.job_id, record.reject_reason))
        elif event == "finished" and record.failed:
            log.append((service.sim.now, "drop", record.job.job_id, "failed"))
        else:
            log.append((service.sim.now, "other", record.job.job_id, event))

    service.observers.append(observe)
    result = service.run([job.clone() for job in jobs])
    if check_keys:
        assert_keys_match_queue(policy)
    instants = []
    for time, group in groupby(log, key=lambda entry: entry[0]):
        group = list(group)
        instants.append((time,
                         [e[2:] for e in group if e[1] == "other"],
                         [e[2:] for e in group if e[1] == "drop"]))
    outcomes = [
        (r.job.job_id, r.status.name, r.failed, r.killed, r.reject_reason,
         *(None if v is None else float(v).hex()
           for v in (r.start_time, r.finish_time, r.utility, r.quoted_cost)))
        for r in sorted(result.records, key=lambda r: r.job.job_id)
    ]
    return instants, outcomes, float(result.ledger.total_utility).hex()


@given(
    raw=jobs_strategy,
    policy=st.sampled_from(POLICIES),
    model=st.sampled_from(["bid", "commodity"]),
    options=st.fixed_dictionaries({
        "admission_control": st.sampled_from([True, True, False]),
        "kill_at_estimate": st.booleans(),
        "tariff": st.sampled_from([None, None, TARIFF]),
    }),
    outages=outages_strategy,
    recovery=st.sampled_from(["resubmit", "checkpoint"]),
    elastic=elastic_strategy,
    procs=st.just(PROCS),
)
@example(raw=OVERDUE_RELEASE, policy="FCFS-BF", model="bid", options=FLAT,
         outages=[], recovery="resubmit", elastic=[], procs=4)
@example(raw=SHRUNK_MACHINE, policy="FCFS-BF", model="bid", options=FLAT,
         outages=[], recovery="resubmit", elastic=[(0.0, 1), (4.0, -1)], procs=4)
@settings(max_examples=300, deadline=None)
def test_dispatch_matches_reference(raw, policy, model, options, outages, recovery,
                                    elastic, procs):
    jobs = build_jobs(raw)
    faults = fault_config(outages, recovery, elastic)
    fast = run_log(make_policy(policy, **options), jobs, model, faults, procs,
                   check_keys=True)
    slow = run_log(reference_policy(policy, **options), jobs, model, faults, procs)
    assert fast == slow
