"""Tests for the resilient execution layer: timeouts, retries with backoff,
crash-surviving workers (crash injection through ``crashkit``), failure journaling, and
graceful-degradation grid assembly."""

import json
import math
import os
import signal
import time
from dataclasses import dataclass
from typing import Optional

import pytest

import crashkit
from repro import perf
from repro.core.separate import SeparateRisk
from repro.experiments.errors import (
    FailureRecord,
    GridExecutionError,
    RunCrashed,
    RunFailed,
    RunTimeout,
    classify_failure,
    error_from_dict,
)
from repro.experiments.pipeline import (
    ExecutionPolicy,
    assemble_grid,
    execute_plan,
    grid_plan,
)
from repro.experiments.runner import run_grid, run_single
from repro.experiments.runstore import RunKey, RunStore, StoreError
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.sim import SimBudgetExceeded

SMALL = ExperimentConfig(n_jobs=20, total_procs=16)
SCENARIOS = [scenario_by_name("job mix")]
POLICIES = ["FCFS-BF", "Libra"]

#: fast-retry policy for tests: near-zero backoff, no real sleeping.
FAST = dict(backoff_base=0.001, backoff_cap=0.002, poll_interval=0.02)


class FakeClock:
    """Injectable clock + sleep pair recording every backoff wait."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


# -- error taxonomy ------------------------------------------------------------


def test_classify_failure_maps_the_taxonomy():
    timeout = classify_failure(SimBudgetExceeded("too long", budget="max_events=5"))
    assert isinstance(timeout, RunTimeout)
    assert timeout.kind == "timeout" and timeout.budget == "max_events=5"
    # RunErrors pass through unchanged.
    crash = RunCrashed("worker died")
    assert classify_failure(crash) is crash
    # Arbitrary exceptions become RunFailed with a traceback tail.
    try:
        raise ZeroDivisionError("boom")
    except ZeroDivisionError as exc:
        failed = classify_failure(exc)
    assert isinstance(failed, RunFailed)
    assert failed.exc_type == "ZeroDivisionError"
    assert "boom" in failed.traceback_tail


def test_error_dict_roundtrip():
    for error in (
        RunTimeout("over budget", budget="run_timeout=5"),
        RunCrashed("sigkill"),
        RunFailed("ValueError: x", exc_type="ValueError", traceback_tail="tb"),
    ):
        back = error_from_dict(json.loads(json.dumps(error.to_dict())))
        assert type(back) is type(error)
        assert back.kind == error.kind
        assert back.message == error.message


def test_grid_execution_error_names_digests():
    record = FailureRecord(
        digest="a" * 64, policy="Libra", model="bid",
        kind="timeout", message="m", attempts=3,
    )
    exc = GridExecutionError([record])
    assert "a" * 12 in str(exc)
    assert "degrade" in str(exc)


def test_failure_record_roundtrip():
    record = FailureRecord.from_error(
        "b" * 64, "Libra", "bid",
        RunTimeout("over", budget="run_timeout=2"), attempts=3,
    )
    back = FailureRecord.from_dict(json.loads(json.dumps(record.to_dict())))
    assert back == record
    assert back.detail == {"budget": "run_timeout=2"}


# -- execution policy ----------------------------------------------------------


def test_backoff_is_deterministic_exponential_and_capped():
    policy = ExecutionPolicy(backoff_base=1.0, backoff_cap=8.0)
    d1 = policy.backoff_delay("d1", 1)
    assert d1 == policy.backoff_delay("d1", 1)  # pure function of inputs
    assert d1 != policy.backoff_delay("d2", 1)  # decorrelated across cells
    # Jitter spans 50–150 % of the exponential base.
    assert 0.5 <= d1 <= 1.5
    assert 1.0 <= policy.backoff_delay("d1", 2) <= 3.0
    # Cap: 2**9 would be 512, but the base is clamped to 8.
    assert policy.backoff_delay("d1", 10) <= 12.0


def test_execution_policy_validation():
    with pytest.raises(ValueError):
        ExecutionPolicy(on_error="explode")
    with pytest.raises(ValueError):
        ExecutionPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        ExecutionPolicy(run_timeout=0.0)


# -- serial supervision: retries with fake clock -------------------------------


def test_transient_failure_is_retried_then_succeeds(monkeypatch):
    plan = grid_plan(["FCFS-BF"], "bid", SMALL, "A", SCENARIOS)
    calls = {"n": 0}
    real = run_single

    def flaky(config, policy, model, **kwargs):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise RuntimeError("transient resource blip")
        return real(config, policy, model, **kwargs)

    monkeypatch.setattr("repro.experiments.runner.run_single", flaky)
    fake = FakeClock()
    policy = ExecutionPolicy(
        max_retries=2, backoff_base=1.0, backoff_cap=8.0,
        clock=fake.clock, sleep=fake.sleep,
    )
    store = RunStore()
    with perf.capture() as registry:
        execution = execute_plan(plan, store, execution=policy)
        counters = dict(registry.counters)
    assert execution.failed == ()
    assert execution.retries == 2
    assert execution.complete
    assert counters.get("pipeline.retries") == 2
    # The first failing item slept out its two backoff delays on the fake
    # clock, with the exact deterministic jitterered schedule.
    digest = next(
        RunKey(c, p, m).digest for c, p, m in plan
    )
    assert fake.sleeps[:2] == [
        policy.backoff_delay(digest, 1),
        policy.backoff_delay(digest, 2),
    ]
    assert store.failures() == {}


def test_exhausted_retries_journal_and_continue(monkeypatch):
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    poisoned = RunKey(*plan[0]).digest

    real = run_single

    def poisoned_run(config, policy, model, **kwargs):
        if RunKey(config, policy, model).digest == poisoned:
            raise ValueError("deterministic poison")
        return real(config, policy, model, **kwargs)

    monkeypatch.setattr("repro.experiments.runner.run_single", poisoned_run)
    fake = FakeClock()
    policy = ExecutionPolicy(max_retries=1, clock=fake.clock, sleep=fake.sleep)
    store = RunStore()
    execution = execute_plan(plan, store, execution=policy)
    # The poisoned cell failed after 2 attempts; everything else completed.
    assert execution.failed == (poisoned,)
    assert not execution.complete
    assert execution.executed == execution.misses
    record = store.failures()[poisoned]
    assert record.kind == "failure"
    assert record.attempts == 2
    assert "deterministic poison" in record.message
    # Abort-mode assembly refuses, naming the degrade escape hatch.
    with pytest.raises(StoreError, match="degrade"):
        assemble_grid(store, POLICIES, "bid", SMALL, "A", SCENARIOS)


def test_watchdog_timeout_classified_and_journaled():
    plan = grid_plan(["FCFS-BF"], "bid", SMALL, "A", SCENARIOS)
    fake = FakeClock()
    policy = ExecutionPolicy(
        max_sim_events=5, max_retries=1, clock=fake.clock, sleep=fake.sleep
    )
    store = RunStore()
    execution = execute_plan(plan, store, execution=policy)
    assert len(execution.failed) == execution.misses  # every cell timed out
    for digest in execution.failed:
        record = store.failures()[digest]
        assert record.kind == "timeout"
        assert record.detail["budget"] == "max_events=5"
        assert record.attempts == 2  # timeouts are retryable


def test_wall_clock_timeout_serial():
    from repro.experiments.pipeline import _wall_clock_limit

    if not hasattr(signal, "setitimer"):
        pytest.skip("no setitimer on this platform")
    with pytest.raises(RunTimeout):
        with _wall_clock_limit(0.05):
            while True:
                pass


# -- pool supervision ----------------------------------------------------------


def test_pool_path_matches_serial_reference():
    reference_doc = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS).to_dict()
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    store = RunStore()
    execution = execute_plan(
        plan, store, n_workers=2, execution=ExecutionPolicy(**FAST)
    )
    assert execution.complete
    grid = assemble_grid(store, POLICIES, "bid", SMALL, "A", SCENARIOS)
    assert grid.to_dict() == reference_doc


@pytest.mark.slow
def test_grid_survives_sigkilled_workers(tmp_path):
    """Two workers are SIGKILLed mid-grid; the supervisor
    rebuilds the pool, resubmits, and the result is bit-identical."""
    reference_doc = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS).to_dict()
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    store = RunStore(tmp_path / "store")
    with perf.capture() as registry, crashkit.crashing_units(chaos_dir, 2):
        execution = execute_plan(
            plan, store, n_workers=2,
            execution=ExecutionPolicy(max_retries=3, **FAST),
        )
        counters = dict(registry.counters)
    # Both injected crashes actually happened …
    assert len(list(chaos_dir.glob("*.killed"))) == 2
    assert counters.get("pipeline.pool_rebuilds", 0) >= 1
    # … and the grid still completed, bit-identical to the serial run.
    assert execution.failed == ()
    assert execution.complete
    grid = assemble_grid(RunStore(tmp_path / "store"), POLICIES, "bid", SMALL,
                         "A", SCENARIOS)
    assert grid.to_dict() == reference_doc


@pytest.mark.parametrize("slot,crash", [
    ("kill-slot-0", lambda path: crashkit.crash_unit(path, 1, "d1")),
    ("batch-slot-0", lambda path: crashkit.crash_batch(path, 1, ["d1", "d2"])),
], ids=["unit", "batch"])
def test_chaos_budget_is_claimed_before_the_marker(tmp_path, monkeypatch, slot, crash):
    """A worker that has claimed the last budget slot but not yet written
    its marker still blocks every other worker from crashing."""
    kills = []
    monkeypatch.setattr(crashkit.os, "kill", lambda pid, sig: kills.append(sig))
    (tmp_path / slot).touch()  # another worker's claim in flight
    crash(tmp_path)
    assert kills == []
    (tmp_path / slot).unlink()
    crash(tmp_path)
    crash(tmp_path)  # the marker now exists: the same item never crashes twice
    assert kills == [signal.SIGKILL]


def test_keyboard_interrupt_cleans_up_and_resumes(tmp_path, monkeypatch):
    """^C mid-grid: workers are killed, the store stays consistent, and a
    rerun against the same cache dir reproduces the reference exactly."""
    import repro.experiments.pipeline as pipeline_mod

    reference_doc = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS).to_dict()
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)

    real_wait = pipeline_mod.wait
    calls = {"n": 0}

    def interrupting_wait(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 2:  # let a couple of runs finish first
            raise KeyboardInterrupt
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "wait", interrupting_wait)
    store = RunStore(tmp_path)
    with perf.capture() as registry:
        with pytest.raises(KeyboardInterrupt):
            execute_plan(
                plan, store, n_workers=2, execution=ExecutionPolicy(**FAST)
            )
        counters = dict(registry.counters)
    assert counters.get("pipeline.interrupted") == 1
    monkeypatch.undo()

    # Whatever was checkpointed is valid; the resume simulates only the rest.
    done = len(RunStore(tmp_path).disk_digests())
    unique = {RunKey(c, p, m).digest for c, p, m in plan}
    resumed = RunStore(tmp_path)
    grid = run_grid(POLICIES, "bid", SMALL, "A", SCENARIOS, resumed)
    assert resumed.misses == len(unique) - done
    assert grid.to_dict() == reference_doc


@dataclass(frozen=True)
class SleepyUnit:
    """A plan unit that sleeps far past any test's patience: always, or,
    given a marker path, only on the first run of any unit sharing it,
    which creates the marker."""

    digest: str
    marker: Optional[str] = None
    policy: str = "sleepy"
    model: str = "none"

    def execute(self, max_sim_events=None, max_sim_time=None):
        if self.marker is None or not os.path.exists(self.marker):
            if self.marker is not None:
                open(self.marker, "x").close()
            time.sleep(60.0)
        return self.digest

    def document(self, result):
        return {"key": self.digest, "format": "sleepy", "result": result}

    def load(self, doc):
        return doc["result"]


def test_straggler_eviction_resubmits_the_innocent_batch(tmp_path, monkeypatch):
    """The backstop evicts the one batch past its deadline while a second
    batch is in flight: killing the pool kills both, and the second is
    resubmitted without being charged an attempt."""
    import repro.experiments.pipeline as pipeline_mod

    started = tmp_path / "innocent-started"
    innocents = [SleepyUnit(f"innocent-{i}", str(started)) for i in (1, 2)]
    straggler = SleepyUnit("straggler")
    clock = FakeClock()
    policy = ExecutionPolicy(run_timeout=60.0, max_retries=0, batch_size=2,
                             clock=clock.clock, sleep=clock.sleep, **FAST)
    # Batches: the two innocents (deadline twice the per-unit one, as the
    # batch holds two units) and the straggler alone.  Once the innocent
    # batch is sleeping in a worker, the clock moves past the straggler's
    # deadline only.
    real_wait = pipeline_mod.wait

    def wait(*args, **kwargs):
        done = real_wait(*args, **kwargs)
        if started.exists():
            clock.now = 1.5 * policy.straggler_deadline()
        return done

    monkeypatch.setattr(pipeline_mod, "wait", wait)
    store = RunStore()
    execution = execute_plan([*innocents, straggler], store, n_workers=2,
                             execution=policy)
    assert [store.lookup(unit) for unit in innocents] == ["innocent-1", "innocent-2"]
    assert execution.retries == 0
    assert execution.failed == ("straggler",)
    failures = store.failures()
    assert list(failures) == ["straggler"]
    assert failures["straggler"].kind == "timeout"
    assert failures["straggler"].attempts == 1


# -- graceful degradation ------------------------------------------------------


def degraded_store_and_failed():
    """A store with one scenario fully executed except one poisoned cell."""
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    store = RunStore()
    execution = execute_plan(plan, store, execution=ExecutionPolicy())
    assert execution.complete
    # Knock one cell out after the fact: drop it from memory and journal it.
    victim = RunKey(*plan[0])
    del store._memory[victim.digest]
    store.record_failure(FailureRecord(
        digest=victim.digest, policy=victim.policy, model=victim.model,
        kind="timeout", message="event budget exhausted", attempts=3,
    ))
    return store, victim


def test_degrade_assembly_marks_gaps_and_keeps_survivors():
    store, victim = degraded_store_and_failed()
    grid = assemble_grid(
        store, POLICIES, "bid", SMALL, "A", SCENARIOS, on_missing="degrade"
    )
    assert grid.degraded
    assert len(grid.gaps) == 1
    gap = grid.gaps[0]
    assert gap["digest"] == victim.digest
    assert gap["policy"] == victim.policy
    assert gap["kind"] == "timeout"
    assert gap["reason"] == "event budget exhausted"
    # The victim policy still has 5 surviving values in the scenario, so its
    # separate risk is computed over them (finite), not a gap marker.
    rows = grid.gaps_report()
    assert rows[0]["knob"].startswith("pct_high_urgency=")
    for by_policy in grid.separate.values():
        for by_scenario in by_policy.values():
            for risk in by_scenario.values():
                assert not risk.is_gap
    # The JSON grid document carries the gaps through a strict round trip.
    doc = json.loads(json.dumps(grid.to_dict(), allow_nan=False))
    assert doc["gaps"] == [dict(gap) for gap in grid.gaps]


def test_degrade_assembly_with_whole_policy_missing_yields_gap_markers():
    plan = grid_plan(POLICIES, "bid", SMALL, "A", SCENARIOS)
    store = RunStore()
    execute_plan(plan, store, execution=ExecutionPolicy())
    # Remove every Libra run in the scenario → NaN gap markers for Libra.
    for config, policy, model in plan:
        if policy == "Libra":
            store._memory.pop(RunKey(config, policy, model).digest, None)
    grid = assemble_grid(
        store, POLICIES, "bid", SMALL, "A", SCENARIOS, on_missing="degrade"
    )
    assert grid.degraded and len(grid.gaps) == 6
    for by_policy in grid.separate.values():
        for risk in by_policy["Libra"].values():
            assert risk.is_gap
        for risk in by_policy["FCFS-BF"].values():
            assert not risk.is_gap
    # Plots silently omit the gap points instead of crashing.
    from repro.core.objectives import OBJECTIVES, Objective

    sep = grid.separate_plot(Objective.SLA)
    assert "Libra" not in sep.series and "FCFS-BF" in sep.series
    integrated = grid.integrated_plot(OBJECTIVES)
    assert "Libra" not in integrated.series and "FCFS-BF" in integrated.series


def test_gap_marker_semantics():
    gap = SeparateRisk.gap()
    assert gap.is_gap
    assert math.isnan(gap.performance) and math.isnan(gap.volatility)
    assert not SeparateRisk(0.5, 0.1).is_gap
    with pytest.raises(ValueError):
        SeparateRisk(float("nan"), 0.1)  # only the NaN/NaN pair is legal


def test_gap_renders_explicitly_in_tables():
    from repro.experiments.report import format_table

    text = format_table([{"policy": "X", "performance": float("nan")}])
    assert "(gap)" in text


def test_assemble_rejects_unknown_on_missing():
    with pytest.raises(ValueError, match="on_missing"):
        assemble_grid(RunStore(), POLICIES, "bid", SMALL, "A", SCENARIOS,
                      on_missing="ignore")
