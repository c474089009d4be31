"""Tests for the work-stealing grid farm (repro.farm).

The farm's headline contract — a farmed grid is bit-identical to a serial
one — is asserted end to end, along with the protocol pieces it rests on:
content-addressed plans (a job is its plan: no per-unit files),
crash-tolerant lease files, idempotent job creation, store sync, and the
spool-watching service loop that drives every job.
"""

import json

import pytest

from repro.experiments.pipeline import ExecutionPolicy
from repro.experiments.runner import run_grid
from repro.experiments.runstore import RunKey, RunStore, StoreError
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.farm import leases
from repro.farm.coordinator import Farm, FarmError
from repro.farm.plan import FarmPlan, load_plan_text, plan_from_args
from repro.farm.service import FarmService
from repro.farm.worker import WorkerAgent

SMALL = ExperimentConfig(n_jobs=20, total_procs=16)
POLICIES = ["FCFS-BF", "Libra"]
SCENARIO = "job mix"


def small_plan(**knobs) -> FarmPlan:
    return plan_from_args(POLICIES, "bid", SMALL, "A", scenarios=(SCENARIO,),
                          execution=ExecutionPolicy(**knobs))


def drive(farm: Farm) -> dict:
    """Drive the farm's one job to ``result.json`` and return it."""
    [job_id] = FarmService(farm, poll_interval=0.01).serve(max_jobs=1, timeout=60.0)
    return json.loads(farm.result_path(job_id).read_text())


def serial_reference() -> dict:
    return run_grid(POLICIES, "bid", SMALL, "A", [scenario_by_name(SCENARIO)],
                    RunStore()).to_dict()


# -- plans ---------------------------------------------------------------------


def test_plan_roundtrips_and_digest_is_stable():
    plan = small_plan(on_error="degrade")
    back = FarmPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert back == plan
    assert back.digest == plan.digest
    assert len(plan.job_id) == 12
    # The digest is content addressing: any knob change moves the job id.
    assert small_plan().digest != plan.digest


def test_plan_units_match_grid_plan_dedup():
    plan = small_plan()
    units = plan.unique_units()
    assert len(units) == 12  # 6 scenario values × 2 policies, no dupes here
    digests = [d for _, d in units]
    assert len(set(digests)) == len(digests)
    assert all(RunKey(*item).digest == d for item, d in units)


def test_plan_rejects_unknown_execution_knobs():
    with pytest.raises(ValueError, match="unknown execution knobs"):
        FarmPlan(policies=("FCFS-BF",), model="bid",
                 execution={"poll_interval": 1.0})
    # An out-of-range value is refused at submission, not by a worker
    # holding a lease: a spool file carrying one is rejected.
    doc = small_plan().to_dict()
    doc["execution"] = {"max_retries": -1}
    with pytest.raises(StoreError, match="max_retries must be >= 0"):
        FarmPlan.from_dict(doc)


def test_plan_rejects_foreign_and_newer_documents():
    with pytest.raises(StoreError, match="not a repro-farm-plan"):
        load_plan_text(json.dumps({"format": "something-else"}))
    newer = small_plan().to_dict()
    newer["version"] = 99
    with pytest.raises(StoreError, match="newer than this code"):
        load_plan_text(json.dumps(newer))
    with pytest.raises(StoreError, match="not valid JSON"):
        load_plan_text("{trunca")


def test_job_ids_are_pinned():
    """Resubmitting a plan to an existing farm must resume its old job, so
    a change to the farm's files or to ``plan_from_args`` may not move a
    job id; only a plan-format or run-store schema bump may."""
    assert small_plan().job_id == "a3e642d397f3"
    degrade = small_plan(max_sim_events=10, max_retries=1, backoff_base=0.01,
                         on_error="degrade")
    assert degrade.execution == {"max_retries": 1, "backoff_base": 0.01,
                                 "max_sim_events": 10, "on_error": "degrade"}
    assert degrade.job_id == "25560a79a42e"


def test_plan_execution_policy_carries_knobs():
    plan = small_plan(run_timeout=5.0, max_retries=7, on_error="degrade")
    policy = plan.execution_policy()
    assert isinstance(policy, ExecutionPolicy)
    assert (policy.run_timeout, policy.max_retries, policy.on_error) == \
        (5.0, 7, "degrade")
    assert plan.on_error == "degrade"


# -- leases --------------------------------------------------------------------


def test_lease_acquire_is_exclusive_and_releasable(tmp_path):
    path = tmp_path / "d.json"
    ours = leases.acquire(path, "d", "w1", duration=60.0, clock=lambda: 100.0)
    assert ours is not None and ours.worker == "w1"
    assert leases.acquire(path, "d", "w2", duration=60.0, clock=lambda: 100.0) is None
    leases.release(path, ours)
    assert not path.exists()
    # releasing someone else's lease is a no-op
    again = leases.acquire(path, "d", "w2", duration=60.0, clock=lambda: 100.0)
    leases.release(path, ours)
    assert leases.read_lease(path) == again


def test_lease_renew_pushes_deadline_and_detects_loss(tmp_path):
    path = tmp_path / "d.json"
    lease = leases.acquire(path, "d", "w1", duration=10.0, clock=lambda: 100.0)
    renewed = leases.renew(path, lease, duration=10.0, clock=lambda: 105.0)
    assert renewed.deadline == 115.0
    # A rival who stole and re-acquired owns the file now: renew must fail.
    leases.steal(path)
    leases.acquire(path, "d", "w2", duration=10.0, clock=lambda: 120.0)
    assert leases.renew(path, renewed, duration=10.0, clock=lambda: 121.0) is None


def test_expired_lease_is_stolen_on_acquire(tmp_path):
    path = tmp_path / "d.json"
    leases.acquire(path, "d", "dead", duration=10.0, clock=lambda: 100.0)
    # Live at t=105: still exclusive.
    assert leases.acquire(path, "d", "w2", duration=10.0, clock=lambda: 105.0) is None
    # Expired at t=111: the claimant steals and takes over in one call.
    taken = leases.acquire(path, "d", "w2", duration=10.0, clock=lambda: 111.0)
    assert taken is not None and taken.worker == "w2"


def test_reap_expired_sweeps_only_stale_leases(tmp_path):
    leases.acquire(tmp_path / "a.json", "a", "dead", duration=10.0,
                   clock=lambda: 100.0)
    leases.acquire(tmp_path / "b.json", "b", "alive", duration=100.0,
                   clock=lambda: 100.0)
    assert leases.reap_expired(tmp_path, clock=lambda: 120.0) == 1
    assert not (tmp_path / "a.json").exists()
    assert (tmp_path / "b.json").exists()


# -- farm layout and job lifecycle ---------------------------------------------


def test_create_job_is_idempotent(tmp_path):
    farm = Farm(tmp_path)
    plan = small_plan()
    job_id = farm.create_job(plan)
    layout = sorted(p.name for p in farm.job_dir(job_id).iterdir())
    assert layout == ["done", "failed", "job.json", "leases"]  # no units/
    assert farm.create_job(plan) == job_id  # resume, not duplicate
    assert sorted(p.name for p in farm.job_dir(job_id).iterdir()) == layout
    assert farm.load_plan(job_id) == plan
    # A fresh handle explodes job.json into the plan's units, digest-sorted.
    units = Farm(tmp_path).units(job_id)
    assert [d for _, d in units] == sorted(d for _, d in plan.unique_units())


def test_submission_spool_roundtrip_and_rejection(tmp_path):
    farm = Farm(tmp_path)
    plan = small_plan()
    path = farm.submit(plan)
    assert path.parent == farm.spool_dir
    (farm.spool_dir / "garbage.json").write_text("{nope")
    accepted = farm.accept_submissions()
    assert accepted == [plan.job_id]
    assert not path.exists()
    rejected = list(farm.spool_dir.glob("*.rejected"))
    assert len(rejected) == 1
    assert farm.job_ids() == [plan.job_id]


def test_plan_and_unit_files_have_fixed_bytes_and_leave_no_temp_files(tmp_path):
    farm = Farm(tmp_path)
    plan = small_plan()
    plan_text = json.dumps(plan.to_dict(), indent=1, sort_keys=True) + "\n"
    assert farm.submit(plan).read_bytes() == plan_text.encode()
    job_id = farm.create_job(plan)
    assert (farm.job_dir(job_id) / "job.json").read_bytes() == plan_text.encode()
    # job.json is the job's only description: no unit file is written.
    assert [p for p in farm.job_dir(job_id).rglob("*") if p.is_file()] == \
        [farm.job_dir(job_id) / "job.json"]
    assert [p for p in tmp_path.rglob("*") if ".tmp" in p.name] == []


def test_progress_counts_markers(tmp_path):
    farm = Farm(tmp_path)
    job_id = farm.create_job(small_plan())
    progress = farm.progress(job_id)
    assert (progress.units, progress.done, progress.outstanding) == (12, 0, 12)
    assert not progress.complete


# -- end-to-end: single worker -------------------------------------------------


def test_single_worker_farm_is_bit_identical_to_serial(tmp_path):
    reference = serial_reference()
    farm = Farm(tmp_path)
    job_id = farm.create_job(small_plan())
    executed = WorkerAgent(farm, worker_id="w0").run(drain=True)
    assert executed == 12
    assert drive(farm) == reference
    assert farm.progress(job_id).done == 12


def test_two_workers_split_the_job_and_merge(tmp_path):
    reference = serial_reference()
    farm = Farm(tmp_path)
    job_id = farm.create_job(small_plan())
    first = WorkerAgent(farm, worker_id="w1").run(max_units=5)
    second = WorkerAgent(farm, worker_id="w2").run(drain=True)
    assert (first, second) == (5, 7)
    assert len(RunStore(farm.worker_store_dir("w1")).disk_digests()) == 5
    assert len(RunStore(farm.worker_store_dir("w2")).disk_digests()) == 7
    assert drive(farm) == reference
    assert len(farm.store().disk_digests()) == 12
    assert farm.progress(job_id).done == 12


def test_dead_workers_lease_is_stolen_and_job_completes(tmp_path):
    reference = serial_reference()
    farm = Farm(tmp_path)
    job_id = farm.create_job(small_plan())
    # The "dead" worker claims a unit with an already-expired lease and
    # never executes it — exactly what a SIGKILL after claim leaves behind.
    dead = WorkerAgent(farm, worker_id="dead", lease_duration=-1.0)
    claimed = dead.claim_next()
    assert claimed is not None
    assert farm.progress(job_id).leased == 1

    survivor = WorkerAgent(farm, worker_id="survivor")
    assert survivor.run(drain=True) == 12  # stole the orphan, ran everything
    assert drive(farm) == reference  # no "gaps": not degraded
    assert farm.progress(job_id).leased == 0


def test_dead_worker_on_correlated_fault_grid_is_stolen_bit_identically(tmp_path):
    """Fault/lease interaction: a worker SIGKILLed mid-claim on a grid with
    correlated fault domains leaves an orphaned lease; the survivor steals
    it and the farmed result is bit-identical to the serial reference —
    fault-domain RNG substreams do not leak across the steal."""
    correlated = SMALL.with_values(
        fault_mtbf=60_000.0, fault_mttr=600.0,
        fault_domain_size=4, fault_domain_mtbf=25_000.0,
        fault_cascade_prob=0.5,
    )
    reference = run_grid(POLICIES, "bid", correlated, "A",
                         [scenario_by_name(SCENARIO)], RunStore()).to_dict()
    farm = Farm(tmp_path)
    farm.create_job(
        plan_from_args(POLICIES, "bid", correlated, "A", scenarios=(SCENARIO,))
    )
    dead = WorkerAgent(farm, worker_id="dead", lease_duration=-1.0)
    assert dead.claim_next() is not None
    survivor = WorkerAgent(farm, worker_id="survivor")
    assert survivor.run(drain=True) == 12
    assert drive(farm) == reference  # no "gaps": not degraded


def test_failed_unit_degrades_with_gap_accounting(tmp_path):
    farm = Farm(tmp_path)
    # An impossible event budget fails every attempt; degrade-mode assembly
    # must turn the failures into journaled gaps, not a crash.
    plan = small_plan(max_sim_events=10, max_retries=1, backoff_base=0.01,
                      on_error="degrade")
    job_id = farm.create_job(plan)
    executed = WorkerAgent(farm, worker_id="w0").run(drain=True)
    assert executed == 12
    progress = farm.progress(job_id)
    assert progress.failed == 12 and progress.complete
    assert len(drive(farm)["gaps"]) == 12
    assert len(farm.store().failures()) == 12


def test_service_times_out_without_workers(tmp_path):
    farm = Farm(tmp_path)
    farm.create_job(small_plan())
    clock = iter(float(t) for t in range(0, 1000, 10))
    service = FarmService(farm, poll_interval=0.0,
                          clock=lambda: next(clock), sleep=lambda _: None)
    with pytest.raises(FarmError, match="timed out after 20s with 1 pending job"):
        service.serve(max_jobs=1, timeout=20.0)


# -- service mode --------------------------------------------------------------


def test_service_picks_up_spool_and_self_executes(tmp_path):
    reference = serial_reference()
    farm = Farm(tmp_path)
    plan = small_plan()
    farm.submit(plan)
    lines = []
    service = FarmService(farm, poll_interval=0.01, self_execute=True,
                          worker_id="svc", echo=lines.append)
    completed = service.serve(max_jobs=1, timeout=120.0)
    assert completed == [plan.job_id]
    assert json.loads(farm.result_path(plan.job_id).read_text()) == reference
    assert any("accepted job" in line for line in lines)
    assert any("complete" in line for line in lines)


def test_service_exit_when_idle_with_empty_farm(tmp_path):
    service = FarmService(Farm(tmp_path), poll_interval=0.01)
    assert service.serve(exit_when_idle=True) == []


def test_unreadable_job_is_skipped_and_never_leased(tmp_path, capsys):
    """A job whose job.json cannot be read stops neither a worker nor the
    service: it is never claimed (so no lease is left behind), the good
    job drains and assembles, and ``farm status`` names it unreadable."""
    from repro.cli import main

    reference = serial_reference()
    farm = Farm(tmp_path)
    garbage = farm.job_dir("000000000000")  # scanned before the good job
    (garbage / "leases").mkdir(parents=True)
    (garbage / "job.json").write_text("{nope")
    job_id = farm.create_job(small_plan())
    with pytest.raises(FarmError, match="no readable job.json"):
        farm.progress("000000000000")

    assert WorkerAgent(farm, worker_id="w0").run(max_units=1) == 1
    assert list((garbage / "leases").iterdir()) == []
    service = FarmService(farm, poll_interval=0.01, self_execute=True,
                          worker_id="svc")
    assert service.serve(max_jobs=1, timeout=120.0) == [job_id]
    assert json.loads(farm.result_path(job_id).read_text()) == reference
    assert list((garbage / "leases").iterdir()) == []
    assert not farm.result_path("000000000000").exists()
    assert service.serve(exit_when_idle=True, timeout=10.0) == []

    assert main(["farm", "status", "--farm", str(tmp_path)]) == 0
    rows = {line.split()[0]: line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("000000000000", job_id))}
    assert rows == {"000000000000": "unreadable", job_id: "assembled"}


def test_sync_is_idempotent(tmp_path):
    farm = Farm(tmp_path)
    job_id = farm.create_job(small_plan())
    WorkerAgent(farm, worker_id="w0").run(drain=True)
    first = farm.sync()
    assert first.runs_copied == 12
    again = farm.sync()
    assert (again.runs_copied, again.runs_deduped) == (0, 12)
    assert len(farm.store().disk_digests()) == 12
    assert farm.progress(job_id).complete
