"""A fault reaches the scheduler once.

Every same-instant fault is one batch: a rack or site outage, the
rack-mates one node failure drags down (a cascade wave), and the repair
they share.  All nodes of a batch go down in the cluster before the
policy hears of any kill, the policy gets the whole batch in one
``on_node_failure`` call and dispatches once, and one event brings the
batch back with one ``on_node_repair`` call.  So no kill can hit a job
the policy started, at that same instant, on a node of the batch that
was about to fail.

Checked on both cluster models: EASY backfill and FirstReward on the
space-shared cluster, Libra and LibraRiskD on the time-shared one.
"""

from __future__ import annotations

import pytest

from repro.economy.models import make_model
from repro.experiments.runner import build_workload
from repro.experiments.scenarios import ExperimentConfig
from repro.faults.config import FaultConfig
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from repro.sim.engine import Simulator
from repro.sim.events import Priority
from repro.workload.job import Job

#: effectively failure-free per-node process: isolates the domain layer.
QUIET_MTBF = 1e12

#: stochastic rack outages and cascades, as the perfbench fault regime,
#: on a machine of eight racks of eight.
CORRELATED = dict(
    fault_mtbf=345_600.0, fault_mttr=1_800.0, fault_recovery="checkpoint",
    fault_domain_size=8, fault_domain_mtbf=864_000.0, fault_cascade_prob=0.25,
)
#: scripted two-hour rack outages, no per-node failures.
RACK_OUTAGES = dict(
    fault_model="scripted", fault_recovery="checkpoint", fault_domain_size=8,
    fault_domain_schedule=(
        (7_200.0, "rack1", 7_200.0), (28_800.0, "rack3", 7_200.0),
        (57_600.0, "rack5", 7_200.0),
    ),
)


class NumberedSim(Simulator):
    """A simulator that numbers the events it runs, so a test can tell
    which event each node failure and each job start belongs to."""

    def __init__(self) -> None:
        super().__init__()
        self.event = 0

    def _numbered(self, fn):
        def run(*args):
            self.event += 1
            fn(*args)
        return run

    def schedule(self, delay, fn, *args, priority=Priority.INTERNAL):
        return super().schedule(delay, self._numbered(fn), *args, priority=priority)

    def schedule_at(self, time, fn, *args, priority=Priority.INTERNAL):
        return super().schedule_at(time, self._numbered(fn), *args, priority=priority)


class BatchTrace:
    """Watches one fault run: the batches the policy hears of, and every
    kill of a job that started after its batch's first node went down.

    One counter orders node failures and job starts.  A batch is every
    node failure made by one injector event; a kill is *late* when its
    job started after the first node of that batch failed — that is, the
    policy started it mid-batch on a node about to fail.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.sim = service.sim
        self.tick = 0
        self.started: dict[int, int] = {}
        self.first_failure: dict[int, int] = {}
        self.late_kills: list[tuple[float, int, int]] = []
        self.kills = 0
        self.failures: list[tuple[float, tuple[int, ...], int]] = []
        self.repairs: list[tuple[float, tuple[int, ...]]] = []
        self._wrap(service, "notify_started", self._on_start)
        self._wrap(service.cluster, "fail_node", self._on_fail_node)
        self._wrap(service.policy, "on_node_failure", self._on_failure)
        self._wrap(service.policy, "on_node_repair", self._on_repair)

    @staticmethod
    def _wrap(owner, name, hook) -> None:
        original = getattr(owner, name)
        setattr(owner, name, lambda *args: hook(original, *args))

    def _on_start(self, original, job):
        self.tick += 1
        self.started[job.job_id] = self.tick
        return original(job)

    def _on_fail_node(self, original, node_id):
        self.tick += 1
        first = self.first_failure.setdefault(self.sim.event, self.tick)
        killed = original(node_id)
        for job, _progress in killed:
            self.kills += 1
            if self.started[job.job_id] > first:
                self.late_kills.append((self.sim.now, node_id, job.job_id))
        return killed

    def _on_failure(self, original, node_ids, kills):
        self.failures.append((self.sim.now, tuple(node_ids), len(kills)))
        return original(node_ids, kills)

    def _on_repair(self, original, node_ids):
        self.repairs.append((self.sim.now, tuple(node_ids)))
        return original(node_ids)


def traced_service(policy: str, model: str, faults: FaultConfig, procs: int, seed: int = 0):
    service = CommercialComputingService(
        make_policy(policy), make_model(model), total_procs=procs,
        sim=NumberedSim(), fault_config=faults, fault_seed=seed,
    )
    return service, BatchTrace(service)


def traced_run(policy: str, model: str, regime: dict, n_jobs: int, seed: int):
    config = ExperimentConfig(n_jobs=n_jobs, total_procs=64, seed=seed).with_values(
        fault_enabled=True, **regime
    )
    service, trace = traced_service(policy, model, config.faults, 64, config.seed)
    service.run(build_workload(config))
    return service, trace


def _job(job_id, runtime, procs, submit=0.0):
    return Job(job_id=job_id, submit_time=submit, runtime=runtime, procs=procs,
               estimate=runtime, deadline=1e6, budget=1e9, penalty_rate=1.0)


# -- no kill lands mid-batch -----------------------------------------------------


@pytest.mark.parametrize("policy,model,regime,n_jobs", [
    ("FCFS-BF", "bid", CORRELATED, 200),
    ("EDF-BF", "commodity", CORRELATED, 200),
    ("FirstReward", "bid", CORRELATED, 200),
    ("Libra", "commodity", RACK_OUTAGES, 60),
    ("LibraRiskD", "bid", RACK_OUTAGES, 60),
])
def test_no_kill_hits_a_job_started_inside_its_batch(policy, model, regime, n_jobs):
    outages = waves = 0
    for seed in (1, 2):
        service, trace = traced_run(policy, model, regime, n_jobs, seed)
        stats = service.injector.stats
        outages += stats.domain_outages
        waves += stats.cascade_propagations
        assert trace.kills == stats.jobs_killed > 0
        assert trace.late_kills == []
        # Each failure batch reached the policy once, its nodes in order.
        assert sum(len(nodes) for _, nodes, _ in trace.failures) == stats.failures
        assert sum(kills for _, _, kills in trace.failures) == stats.jobs_killed
        assert sum(len(nodes) for _, nodes in trace.repairs) <= stats.failures
    assert outages > 0  # the runs did exercise the batched paths
    if regime is CORRELATED:
        assert waves > 0


def test_a_cascade_wave_is_one_batch():
    # Node 0 fails at t=50 and drags every rack-mate down 5 s later: the
    # three peers fail as one wave, with one dispatch and one repair.
    faults = FaultConfig(
        enabled=True, model="scripted", schedule=((50.0, 0, 200.0),),
        domain_size=4, cascade_prob=1.0, cascade_delay=5.0,
    )
    service, trace = traced_service("FCFS-BF", "bid", faults, procs=8)
    service.run([_job(i, 1_000.0, 1) for i in range(1, 9)])
    assert [(t, nodes) for t, nodes, _ in trace.failures] == [
        (50.0, (0,)), (55.0, (1, 2, 3)),
    ]
    assert trace.repairs == [(250.0, (0,)), (255.0, (1, 2, 3))]
    assert trace.late_kills == []
    assert service.injector.stats.cascade_propagations == 3


# -- one call per batch ------------------------------------------------------------


@pytest.mark.parametrize("policy", ["FCFS-BF", "FirstReward", "Libra"])
def test_a_rack_outage_reaches_the_policy_once(policy):
    faults = FaultConfig(enabled=True, mtbf=QUIET_MTBF, domain_size=4,
                         domain_schedule=((50.0, "rack0", 200.0),))
    service, trace = traced_service(policy, "bid", faults, procs=8)
    # A late arrival keeps the run going past the repair even when the
    # policy cannot re-run the killed job (Libra fails it for good).
    service.run([_job(1, 500.0, 8), _job(2, 100.0, 1, submit=1_000.0)])
    assert trace.failures == [(50.0, (0, 1, 2, 3), 1)]
    assert trace.repairs == [(250.0, (0, 1, 2, 3))]
    stats = service.injector.stats
    assert (stats.domain_outages, stats.failures, stats.repairs) == (1, 4, 4)


# -- the rack comes back whole -------------------------------------------------------


@pytest.mark.parametrize("policy", ["FCFS-BF", "EDF-BF", "FirstReward"])
def test_a_rack_wide_job_queued_behind_the_outage_starts_at_the_repair(policy):
    # Job 1 holds rack0 for the whole run; rack1 is down over [100, 500).
    # Job 2, as wide as the rack, arrives mid-outage and must wait for it.
    faults = FaultConfig(enabled=True, mtbf=QUIET_MTBF, domain_size=4,
                         domain_schedule=((100.0, "rack1", 400.0),))
    service, trace = traced_service(policy, "bid", faults, procs=8)
    hog, wide = _job(1, 10_000.0, 4), _job(2, 100.0, 4, submit=200.0)
    service.run([hog, wide])
    assert trace.repairs == [(500.0, (4, 5, 6, 7))]
    assert service.record_of(wide).start_time == 500.0
    assert service.record_of(wide).finish_time == 600.0


@pytest.mark.parametrize("policy", ["FCFS-BF", "EDF-BF", "FirstReward"])
def test_a_job_killed_by_the_outage_is_interrupted_once(policy):
    # Job 2 runs on three nodes of rack1 when the rack goes down.  Re-queued
    # at the outage, it must not restart on the rack's last member and die
    # again: it waits for the repair, interrupted exactly once.
    faults = FaultConfig(enabled=True, mtbf=QUIET_MTBF, domain_size=4,
                         domain_schedule=((100.0, "rack1", 400.0),))
    service, trace = traced_service(policy, "bid", faults, procs=8)
    hog, victim = _job(1, 10_000.0, 4), _job(2, 300.0, 3)
    service.run([hog, victim])
    record = service.record_of(victim)
    assert record.interruptions == 1
    assert record.finish_time == 500.0 + 300.0  # restarted at the repair
    assert trace.late_kills == []
