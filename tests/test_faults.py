"""Tests for the fault-injection subsystem (repro.faults).

Covers the config/model layer, the injector on both cluster disciplines,
recovery semantics (resubmit vs checkpoint), SLA/accounting integration,
and the end-to-end determinism guarantees the run store relies on.
"""

import math

import numpy as np
import pytest

from repro.economy.models import make_model
from repro.faults.config import NO_FAULTS, FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    ExponentialFailures,
    ScriptedFailures,
    WeibullFailures,
    make_failure_process,
)
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from repro.service.sla import SLAStatus
from repro.workload.job import Job


def _job(job_id=1, submit=0.0, runtime=100.0, procs=1, deadline=10_000.0,
         budget=1e9, penalty_rate=1.0, estimate=None):
    return Job(
        job_id=job_id,
        submit_time=submit,
        runtime=runtime,
        procs=procs,
        estimate=runtime if estimate is None else estimate,
        deadline=deadline,
        budget=budget,
        penalty_rate=penalty_rate,
    )


def _service(policy="FCFS-BF", model="bid", procs=4, faults=None, seed=0):
    return CommercialComputingService(
        make_policy(policy),
        make_model(model),
        total_procs=procs,
        fault_config=faults,
        fault_seed=seed,
    )


def scripted(schedule, **kwargs):
    return FaultConfig(
        enabled=True, model="scripted", schedule=tuple(schedule), **kwargs
    )


# -- FaultConfig ---------------------------------------------------------------


def test_config_defaults_are_disabled_and_valid():
    assert not NO_FAULTS.enabled
    assert NO_FAULTS.recovery == "resubmit"
    assert 0.9 < NO_FAULTS.availability < 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        FaultConfig(mtbf=-1.0)
    with pytest.raises(ValueError):
        FaultConfig(recovery="teleport")
    with pytest.raises(ValueError):
        FaultConfig(model="martian")
    with pytest.raises(ValueError):
        FaultConfig(checkpoint_interval=0.0)
    with pytest.raises(ValueError):
        FaultConfig(schedule=((1.0, 0),))  # malformed triple


@pytest.mark.filterwarnings("ignore:FaultConfig")
def test_config_roundtrip_and_with_values():
    config = scripted([(5.0, 1, 30.0)], mttr=120.0)
    assert FaultConfig.from_dict(config.to_dict()) == config
    assert config.with_values(mtbf=7.0).mtbf == 7.0
    with pytest.raises(ValueError):
        FaultConfig.from_dict({"bogus": 1})


def test_scripted_model_warns_when_mtbf_mttr_would_be_ignored():
    with pytest.warns(UserWarning, match="mtbf/mttr are ignored"):
        scripted([(5.0, 1, 30.0)], mttr=120.0)
    with pytest.warns(UserWarning, match="mtbf/mttr are ignored"):
        scripted([(5.0, 1, 30.0)], mtbf=999.0)
    # Defaults (untouched) stay silent — the common path is not nagged.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scripted([(5.0, 1, 30.0)])


def test_unknown_field_error_names_the_nearest_valid_field():
    with pytest.raises(ValueError, match="did you mean 'domain_size'"):
        FaultConfig.from_dict({"domain_sise": 8})
    with pytest.raises(ValueError, match="did you mean 'cascade_prob'"):
        FaultConfig.from_dict({"cascade_probs": 0.5})


# -- failure processes ---------------------------------------------------------


def test_exponential_means_match_parameters():
    rng = np.random.default_rng(7)
    process = ExponentialFailures(mtbf=1000.0, mttr=50.0)
    ttf = [process.time_to_failure(rng) for _ in range(4000)]
    ttr = [process.time_to_repair(rng) for _ in range(4000)]
    assert np.mean(ttf) == pytest.approx(1000.0, rel=0.1)
    assert np.mean(ttr) == pytest.approx(50.0, rel=0.1)


def test_weibull_scale_preserves_mtbf():
    rng = np.random.default_rng(7)
    process = WeibullFailures(mtbf=1000.0, mttr=50.0, shape=2.0)
    assert process.scale == pytest.approx(1000.0 / math.gamma(1.5))
    ttf = [process.time_to_failure(rng) for _ in range(4000)]
    assert np.mean(ttf) == pytest.approx(1000.0, rel=0.1)


def test_make_failure_process_dispatch():
    assert isinstance(
        make_failure_process(FaultConfig(model="exponential")), ExponentialFailures
    )
    assert isinstance(
        make_failure_process(FaultConfig(model="weibull")), WeibullFailures
    )
    assert isinstance(
        make_failure_process(scripted([(1.0, 0, 2.0)])), ScriptedFailures
    )


def test_injector_requires_enabled_config():
    with pytest.raises(ValueError):
        FaultInjector(_service(), NO_FAULTS)


# -- space-shared cluster failure semantics ------------------------------------


def test_failure_of_free_node_shrinks_capacity_until_repair():
    service = _service(procs=4, faults=scripted([(50.0, 3, 100.0)]))
    job = _job(runtime=1000.0)  # holds node 0 across the failure of node 3
    capacity = []
    service.sim.schedule(100.0, lambda: capacity.append(service.cluster.free_procs))
    service.run([job])
    assert service.record_of(job).deadline_met
    assert capacity == [2]
    assert service.injector.stats.failures == 1
    assert service.injector.stats.jobs_killed == 0
    assert service.injector.stats.downtime_s == 100.0
    assert service.cluster.free_procs == 4  # repaired before the job ends


def test_fault_run_ends_with_its_workload():
    """Fault events pending at the last SLA resolution never run: the clock
    stops there and a node still down counts downtime only up to it."""
    service = _service(procs=4, faults=scripted([(5.0, 3, 100.0), (50.0, 2, 10.0)]))
    result = service.run([_job(runtime=10.0)])
    assert result.sim_time == 10.0
    assert service.sim.pending() == 0
    stats = service.injector.stats
    assert (stats.failures, stats.repairs) == (1, 0)
    assert stats.downtime_s == 5.0 and stats.per_node_downtime == {3: 5.0}
    assert result.fault_stats["observed_availability"] == 1.0 - 5.0 / 40.0


def test_finished_fault_run_stays_inside_the_watchdog():
    """300 jobs on 64 nodes, MTBF 4 d, MTTR 1 h: the last SLA resolves at
    about 10 simulated days.  Before fault runs ended with their workload,
    pending node failures ran the clock to 49 days, so a 20-day watchdog
    journaled this finished run as a failure."""
    from repro.experiments.runner import build_workload, run_single
    from repro.experiments.scenarios import ExperimentConfig

    day = 86_400.0
    config = ExperimentConfig(n_jobs=300, total_procs=64, seed=1).with_values(
        fault_mtbf=4 * day, fault_mttr=3_600.0)
    run_single(config, "FCFS-BF", "bid", max_sim_time=20 * day)
    service = _service(procs=64, faults=config.faults, seed=1)
    result = service.run(build_workload(config))
    last = max(r.finish_time for r in result.records if r.finish_time is not None)
    assert result.sim_time == last < 11 * day
    stats = result.fault_stats
    assert stats["observed_availability"] == 1.0 - stats["downtime_s"] / (64 * last)
    assert abs(stats["observed_availability"] - config.faults.availability) < 0.005


def _stochastic_fault_run(monitored: bool = False):
    from repro.experiments.runner import build_workload
    from repro.experiments.scenarios import ExperimentConfig
    from repro.service.monitoring import ServiceMonitor

    config = ExperimentConfig(n_jobs=60, total_procs=16).with_values(
        fault_mtbf=20_000.0, fault_mttr=500.0, fault_domain_size=4,
        fault_cascade_prob=0.5)
    service = _service(procs=16, faults=config.faults, seed=config.seed)
    monitor, events = None, []
    if monitored:
        monitor = ServiceMonitor(service)
        service.observers.append(lambda event, record: events.append(
            (event, record.job.job_id)))
    jobs = build_workload(config)
    return service, service.run(jobs), monitor, events, jobs


def test_fault_run_carries_no_observer():
    """The terminal transitions close the injector; no observer is needed."""
    service, result, _, _, _ = _stochastic_fault_run()
    assert service.observers == []
    assert result.fault_stats["jobs_killed"] > 0
    assert result.sim_time == max(r.finish_time for r in result.records
                                  if r.finish_time is not None)


@pytest.mark.parametrize("transition", ["rejected", "killed", "finished", "failed"])
def test_each_terminal_transition_closes_the_injector(transition):
    """Whichever transition resolves the last SLA cancels the injector's
    pending events at once."""
    service = _service(procs=4, faults=scripted([(500.0, 3, 100.0)]))
    job = _job()
    service.register(job)
    assert service.sim.pending() == 1
    if transition == "rejected":
        service.notify_rejected(job, "declined")
    else:
        service.notify_accepted(job)
        service.notify_started(job)
        getattr(service, f"notify_{transition}")(job, 10.0)
    assert service.sim.pending() == 0


def test_monitor_on_a_fault_run_sees_every_transition():
    plain = _stochastic_fault_run()[1]
    service, result, monitor, events, jobs = _stochastic_fault_run(monitored=True)
    assert result.outcomes == plain.outcomes
    assert result.sim_time == plain.sim_time
    terminal = [job_id for event, job_id in events
                if event in ("finished", "rejected")]
    assert sorted(terminal) == sorted(job.job_id for job in jobs)
    interrupted = sum(event == "interrupted" for event, _ in events)
    assert interrupted == sum(r.interruptions for r in result.records) > 0
    last = max(r.finish_time for r in result.records if r.finish_time is not None)
    assert result.sim_time == last
    final = monitor.series.samples[-1]
    assert final.time == last
    assert final.submitted == len(jobs)
    assert final.fulfilled == sum(r.deadline_met for r in result.records)


def test_fault_run_with_no_jobs_terminates():
    """Every failure, outage and elastic chain stops at its first event."""
    config = FaultConfig(enabled=True, mtbf=1_000.0, mttr=100.0,
                         domain_size=2, domain_mtbf=2_000.0, cascade_prob=1.0,
                         elastic_model="stochastic", elastic_interval=500.0,
                         elastic_max_extra=2)
    service = _service(procs=4, faults=config)
    result = service.run([])
    assert result.fault_stats["failures"] == 0
    assert result.fault_stats["nodes_commissioned"] == 0


def test_failure_kills_running_job_and_frees_survivor_nodes():
    # One 4-proc job holds all nodes; node 2 dies mid-run.
    config = scripted([(40.0, 2, 1000.0)])
    service = _service(procs=4, faults=config)
    job = _job(runtime=100.0, procs=4, deadline=100_000.0)
    service.run([job])
    record = service.record_of(job)
    assert record.interruptions == 1
    assert record.status is SLAStatus.FINISHED
    assert not record.failed  # resubmitted after repair and finished
    # Interrupted at t=40, node back at t=1040, full rerun: 1040 + 100.
    assert record.finish_time == pytest.approx(1140.0)
    # Wait objective keeps the FIRST start.
    assert record.start_time == pytest.approx(0.0)


def test_resubmit_loses_progress_checkpoint_resumes():
    # Both nodes held by the job; failure at t=80 of a 100s job.
    schedule = [(80.0, 0, 10.0)]
    base = dict(procs=2)
    job_args = dict(runtime=100.0, procs=2, deadline=100_000.0)

    resub = _service(**base, faults=scripted(schedule, recovery="resubmit"))
    job = _job(**job_args)
    resub.run([job])
    # t=80 kill, node back at 90, rerun of the full 100s → 190.
    assert resub.record_of(job).finish_time == pytest.approx(190.0)

    ckpt = _service(
        **base,
        faults=scripted(
            schedule,
            recovery="checkpoint",
            checkpoint_interval=30.0,
            checkpoint_overhead=5.0,
        ),
    )
    job = _job(**job_args)
    ckpt.run([job])
    # 80s of progress → last checkpoint at 60; remaining 40 + 5 overhead,
    # restarted at t=90 → 135.
    assert ckpt.record_of(job).finish_time == pytest.approx(135.0)


def test_failure_before_first_checkpoint_equals_resubmit():
    schedule = [(10.0, 0, 5.0)]
    service = _service(
        procs=1,
        faults=scripted(schedule, recovery="checkpoint", checkpoint_interval=60.0),
    )
    job = _job(runtime=100.0, deadline=100_000.0)
    service.run([job])
    # No checkpoint yet at t=10: full rerun from t=15 → 115.
    assert service.record_of(job).finish_time == pytest.approx(115.0)


def test_infeasible_rerun_fails_sla_and_charges_penalty():
    # Deadline long enough to accept initially, too short to survive the
    # outage — the re-queued job is dropped as a *failed* SLA, not rejected.
    service = _service(procs=1, faults=scripted([(50.0, 0, 10_000.0)]))
    job = _job(runtime=100.0, deadline=150.0, budget=1e9, penalty_rate=2.0)
    service.run([job])
    record = service.record_of(job)
    assert record.failed
    assert not record.deadline_met
    assert record.utility <= 0.0
    assert service.injector.stats.jobs_killed == 1
    outcome = record.outcome()
    assert outcome.accepted and not outcome.deadline_met


@pytest.mark.parametrize("policy", ["FCFS-BF", "Cons-BF"])
def test_rerun_lapsing_behind_a_running_job_fails_sla(policy):
    # Job 2 holds node 1 until t=1000; job 1 loses node 0 at t=50 and waits
    # for node 1, where its deadline lapses in the queue.  An accepted SLA
    # cannot be rejected, so it must fail.
    service = _service(policy, procs=2, faults=scripted([(50.0, 0, 10_000.0)]))
    first = _job(1, runtime=100.0, deadline=150.0)
    blocker = _job(2, runtime=1_000.0, deadline=10_000.0)
    service.run([first, blocker])
    record = service.record_of(first)
    assert record.failed and record.finish_time == 1_000.0
    assert service.record_of(blocker).deadline_met


def test_conservative_rerun_wider_than_surviving_machine_waits_for_repair():
    # While its only node is down the re-queued job fits no window of the
    # availability profile; it waits without a reservation until the repair,
    # by which time its deadline has lapsed.
    service = _service("Cons-BF", procs=1, faults=scripted([(50.0, 0, 10_000.0)]))
    job = _job(runtime=100.0, deadline=150.0)
    service.run([job])
    record = service.record_of(job)
    assert record.failed and record.finish_time == 10_050.0


def test_scripted_double_failure_of_down_node_raises():
    service = _service(procs=2, faults=scripted([(10.0, 0, 100.0), (20.0, 0, 1.0)]))
    with pytest.raises(ValueError, match="already down"):
        service.run([_job(runtime=500.0, deadline=1e6)])


# -- time-shared cluster failure semantics -------------------------------------


def test_timeshared_failure_kills_sharing_jobs_and_readmits():
    config = scripted([(30.0, 0, 20.0)], recovery="resubmit")
    service = _service(policy="Libra", model="commodity", procs=2, faults=config)
    # Two 1-proc jobs with generous deadlines; Libra packs best-fit, so both
    # land on node 0 and both die at t=30.
    jobs = [
        _job(job_id=1, runtime=100.0, deadline=10_000.0),
        _job(job_id=2, runtime=100.0, deadline=10_000.0),
    ]
    service.run(jobs)
    records = [service.record_of(j) for j in jobs]
    assert [r.interruptions for r in records] == [1, 1]
    assert all(r.status is SLAStatus.FINISHED and not r.failed for r in records)
    # Re-admitted immediately on the surviving node (Libra keeps no queue).
    assert all(r.finish_time > 100.0 for r in records)


def test_timeshared_failed_node_not_admissible_until_repair():
    config = scripted([(5.0, 1, 1e6)])
    service = _service(policy="Libra", model="commodity", procs=2, faults=config)
    early = _job(job_id=1, submit=0.0, runtime=10.0, deadline=100.0)
    # After t=5 only node 0 exists; a 2-proc job can never be placed.
    wide = _job(job_id=2, submit=50.0, runtime=10.0, procs=2, deadline=1000.0)
    service.run([early, wide])
    assert service.record_of(early).deadline_met
    assert service.record_of(wide).status is SLAStatus.REJECTED


def test_timeshared_libra_failure_past_deadline_fails_sla():
    # Downtime longer than the job's whole deadline window.
    config = scripted([(10.0, 0, 1e6)])
    service = _service(policy="Libra", model="commodity", procs=1, faults=config)
    job = _job(runtime=50.0, deadline=100.0)
    service.run([job])
    assert service.record_of(job).failed


# -- FirstReward recovery ------------------------------------------------------


def test_first_reward_requeues_and_finishes_late_with_penalty():
    config = scripted([(50.0, 0, 25.0)], recovery="resubmit")
    service = _service(policy="FirstReward", model="bid", procs=1, faults=config)
    job = _job(runtime=100.0, deadline=120.0, budget=1e6, penalty_rate=1.0)
    service.run([job])
    record = service.record_of(job)
    assert record.interruptions == 1
    assert record.status is SLAStatus.FINISHED
    # Rerun finishes at 75 + 100 = 175 > deadline 120: bid-model penalty
    # reduces the settled utility below the full bid.
    assert record.finish_time == pytest.approx(175.0)
    assert record.utility < 1e6


# -- determinism & risk integration --------------------------------------------


def test_stochastic_fault_runs_are_deterministic():
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(n_jobs=60, total_procs=16).with_values(
        fault_mtbf=20_000.0, fault_mttr=500.0
    )
    a = run_single(config, "FCFS-BF", "bid")
    b = run_single(config, "FCFS-BF", "bid")
    assert a == b


def test_recovery_modes_produce_different_reproducible_risk():
    """Scripted schedule, resubmit vs checkpoint: different, reproducible
    SLA penalty totals that surface in the integrated risk metrics."""
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig

    schedule = tuple((float(t), n, 400.0) for t, n in
                     [(3000.0, 1), (9000.0, 5), (15000.0, 2), (24000.0, 0)])
    base = ExperimentConfig(n_jobs=80, total_procs=8).with_values(
        fault_model="scripted",
        fault_schedule=schedule,
        fault_enabled=True,
        arrival_delay_factor=0.05,
    )
    resub = base.with_values(fault_recovery="resubmit")
    ckpt = base.with_values(fault_recovery="checkpoint")
    a1 = run_single(resub, "EDF-BF", "bid")
    a2 = run_single(resub, "EDF-BF", "bid")
    b1 = run_single(ckpt, "EDF-BF", "bid")
    assert a1 == a2  # reproducible
    assert a1 != b1  # recovery discipline changes the risk outcome


def test_fault_stats_flow_into_service_result():
    service = _service(procs=4, faults=scripted([(40.0, 2, 1000.0)]))
    job = _job(runtime=100.0, procs=4, deadline=100_000.0)
    result = service.run([job])
    stats = result.fault_stats
    assert stats is not None
    assert stats["failures"] == 1
    assert stats["jobs_killed"] == 1
    assert stats["interrupted_jobs"] == 1
    assert 0.0 < stats["observed_availability"] < 1.0


def test_faultfree_service_result_has_no_fault_stats():
    service = _service(procs=4)
    result = service.run([_job(runtime=10.0)])
    assert result.fault_stats is None
    assert service.injector is None


def test_fault_sweep_produces_availability_vs_risk_table():
    from repro.experiments.faultsweep import mtbf_scenario, run_fault_sweep
    from repro.experiments.scenarios import ExperimentConfig

    base = ExperimentConfig(n_jobs=40, total_procs=16)
    result = run_fault_sweep(
        ["FCFS-BF", "EDF-BF"], "bid", base.with_values(fault_mttr=1_000.0),
        mtbf_scenario((10_000.0, 40_000.0)),
    )
    assert len(result.rows) == 4  # 2 policies × 2 levels
    availabilities = {row.availability for row in result.rows}
    assert availabilities == {10_000.0 / 11_000.0, 40_000.0 / 41_000.0}
    assert set(result.integrated) == {"FCFS-BF", "EDF-BF"}
    text = result.table()
    assert "avail" in text and "volatility" in text


def test_perf_counters_cover_fault_activity():
    from repro.perf import capture as perf_capture

    config = scripted(
        [(90.0, 0, 10.0)], recovery="checkpoint", checkpoint_interval=30.0
    )
    with perf_capture() as perf:
        service = _service(procs=2, faults=config)
        service.run([_job(runtime=100.0, procs=2, deadline=100_000.0)])
        counters = dict(perf.counters)
    assert counters.get("faults.injected") == 1
    assert counters.get("faults.jobs_killed") == 1
    assert counters.get("faults.checkpoint_restores") == 1
    assert counters.get("faults.repaired") == 1
