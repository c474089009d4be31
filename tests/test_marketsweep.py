"""Market sweeps as pipeline units: dedupe, checkpoint, resume, shard,
supervise — and one cache directory shared with grid runs."""

import json

import pytest

import crashkit
from repro.experiments.marketsweep import (
    MARKET_RUN_FORMAT,
    MarketConfig,
    MarketScenario,
    admission_market_scenario,
    assemble_market_sweep,
    correlated_market_config,
    default_market_config,
    market_plan,
    mtbf_market_scenario,
    run_market_sweep,
)
from repro.experiments.pipeline import (
    ExecutionPolicy,
    assemble_grid,
    execute_plan,
    grid_plan,
)
from repro.experiments.runner import run_grid
from repro.experiments.runstore import RunKey, RunStore, StoreError
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.sim import SimBudgetExceeded


def small_config(**overrides):
    params = {"n_users": 50, "n_jobs": 120}
    params.update(overrides)
    return default_market_config(**params)


# -- config & addressing -------------------------------------------------------

def test_market_config_validation():
    with pytest.raises(ValueError):
        MarketConfig(providers=())
    with pytest.raises(TypeError):
        MarketConfig(providers=("not-a-spec",))
    with pytest.raises(ValueError):
        default_market_config(n_users=0)
    with pytest.raises(ValueError):
        default_market_config(n_jobs=-1)


def test_market_config_roundtrip():
    config = small_config(seed=7)
    assert MarketConfig.from_dict(config.to_dict()) == config
    with pytest.raises(StoreError):
        MarketConfig.from_dict({**config.to_dict(), "bogus": 1})


def test_market_run_key_is_content_addressed():
    a = small_config()
    assert a.digest == small_config().digest
    assert a.digest != small_config(seed=1).digest
    assert a.digest != a.with_risky(mtbf=3600.0).digest


def test_market_config_digests_are_pinned():
    # Cache directories written while MarketConfig still carried a
    # population-backend field must still be served as hits.
    assert default_market_config().digest == (
        "421289208d39a6dd888bb5e21405ab4528b0c102c8ace0cf2799c1723a13c0be"
    )
    assert correlated_market_config().digest == (
        "aacb9e9322e1ffe5b98fa444d92cb37ff468b08d7bd430082f01dfb3b61eeb69"
    )


def test_unit_digests_are_pinned():
    # Cache directories written before grid and market runs became one
    # unit kind must still be served as hits.
    grid_unit = RunKey(ExperimentConfig(n_jobs=50, total_procs=32), "FCFS-BF", "bid")
    assert grid_unit.digest == (
        "6c19c036e6946baf98a48896f868795158b821ac3be9bb3ff7f55641366c3bc9"
    )
    assert small_config().digest == (
        "9f71177d2fdbe2722f969d60a26638f8b148205e098a83a3f6e7364b6c581ba5"
    )


def test_scenario_validation():
    with pytest.raises(ValueError):
        MarketScenario("x", "not-a-knob", (1.0,))
    with pytest.raises(ValueError):
        MarketScenario("x", "mtbf", ())


def test_scenario_varies_only_the_risky_provider():
    base = small_config()
    configs = admission_market_scenario().configs(base)
    assert [c.providers[0].admission for c in configs] == ["greedy", "deadline"]
    assert all(c.providers[1] == base.providers[1] for c in configs)


# -- market documents in the run store ----------------------------------------

def test_document_layer_roundtrip(tmp_path):
    store = RunStore(tmp_path)
    config = small_config()
    assert store.lookup(config) is None
    providers = config.execute()
    store.record(config, providers)
    # A fresh store reads it back from disk, format-checked.
    assert RunStore(tmp_path).lookup(config) == providers
    doc = json.loads(store.run_path(config).read_text())
    assert doc["key"] == config.digest
    assert doc["format"] == MARKET_RUN_FORMAT
    assert doc == config.document(providers)


def test_document_requires_format_marker():
    config = small_config()
    doc = config.document(config.execute())
    with pytest.raises(StoreError, match=MARKET_RUN_FORMAT):
        config.load({**doc, "format": "repro-run"})
    with pytest.raises(StoreError):
        config.load({**doc, "providers": {}})
    assert config.load(doc) == doc["providers"]


def test_corrupt_document_is_quarantined(tmp_path):
    store = RunStore(tmp_path)
    config = small_config()
    store.record(config, config.execute())
    path = store.run_path(config)
    path.write_text("{truncated")
    fresh = RunStore(tmp_path)
    assert fresh.lookup(config) is None
    assert not path.exists()
    assert list((tmp_path / "quarantine").iterdir())


def test_execute_arms_the_watchdog():
    with pytest.raises(SimBudgetExceeded):
        small_config().execute(max_sim_events=10)


# -- one cache directory, both unit kinds --------------------------------------

GRID_BASE = ExperimentConfig(n_jobs=20, total_procs=16)
GRID_SCENARIOS = [scenario_by_name("job mix")]
GRID_POLICIES = ["FCFS-BF"]


def mixed_store(path, grid=True, levels=(None, 3600.0)) -> RunStore:
    """A disk store holding a small grid and a small market sweep."""
    store = RunStore(path)
    if grid:
        execute_plan(grid_plan(GRID_POLICIES, "bid", GRID_BASE, "A", GRID_SCENARIOS), store)
    execute_plan(market_plan(mtbf_market_scenario(levels), small_config()), store)
    return store


def market_digests(levels=(None, 3600.0)):
    return {c.digest for c in mtbf_market_scenario(levels).configs(small_config())}


def test_documents_and_runs_share_a_cache_dir(tmp_path):
    store = mixed_store(tmp_path)
    grid_digests = {
        unit.digest
        for unit in grid_plan(GRID_POLICIES, "bid", GRID_BASE, "A", GRID_SCENARIOS)
    }
    assert len(grid_digests) == 6
    assert RunStore(tmp_path).disk_digests() == grid_digests | market_digests()
    assert not (tmp_path / "docs").exists()


def test_mixed_merge_copies_and_dedupes_both_kinds(tmp_path):
    dest = mixed_store(tmp_path / "dest", levels=(None,))
    src = mixed_store(tmp_path / "src")
    report = dest.merge_from(src)
    # The second market level is new; six grid cells + one level dedupe.
    assert (report.runs_copied, report.runs_deduped) == (1, 7)
    assert report.conflicts == report.corrupt == 0
    assert dest.disk_digests() == src.disk_digests()
    again = dest.merge_from(src)
    assert (again.runs_copied, again.runs_deduped) == (0, 8)
    assert RunStore(tmp_path / "dest").lookup(small_config()) == src.lookup(small_config())


def test_mixed_merge_conflict_quarantines_both_market_sides(tmp_path):
    dest = mixed_store(tmp_path / "dest")
    src = mixed_store(tmp_path / "src")
    config = small_config()
    path = src.run_path(config)
    doc = json.loads(path.read_text())
    doc["providers"]["risky"]["revenue"] = 1.0
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    report = dest.merge_from(src)
    assert report.conflicts == 1
    quarantined = list((tmp_path / "dest" / "quarantine").glob(f"{config.digest}*"))
    assert len(quarantined) == 2
    assert config.digest not in dest.disk_digests()
    assert dest.lookup(config) is None


def test_mixed_store_assembles_the_same_grid(tmp_path):
    grid_only = run_grid(GRID_POLICIES, "bid", GRID_BASE, "A", GRID_SCENARIOS,
                         RunStore(tmp_path / "grid"))
    mixed_store(tmp_path / "mixed")
    mixed = assemble_grid(RunStore(tmp_path / "mixed"), GRID_POLICIES, "bid",
                          GRID_BASE, "A", GRID_SCENARIOS)
    assert mixed.to_dict() == grid_only.to_dict()


# -- plan → execute → assemble -------------------------------------------------

def test_execute_deduplicates_plan(tmp_path):
    store = RunStore(tmp_path)
    base = small_config()
    plan = market_plan(mtbf_market_scenario((None, 3600.0)), base)
    execution = execute_plan(plan + plan, store)
    assert execution.accesses == 4
    assert execution.misses == 2
    assert execution.hits == 2
    assert execution.executed == 2
    assert execution.complete


def test_sweep_resume_is_bit_identical(tmp_path):
    base = small_config()
    first = run_market_sweep(base, store=RunStore(tmp_path))
    assert first.execution.executed == len(first.scenario.levels)
    resumed = run_market_sweep(base, store=RunStore(tmp_path))
    assert resumed.execution.executed == 0
    assert resumed.execution.hits == len(first.scenario.levels)
    assert resumed.rows == first.rows
    assert resumed.table() == first.table()


def test_sharded_sweep_partitions_and_assembles(tmp_path):
    base = small_config()
    scenario = mtbf_market_scenario()
    plan = market_plan(scenario, base)
    shards = [
        execute_plan(plan, RunStore(tmp_path), shard=(i, 2))
        for i in range(2)
    ]
    assert sum(s.executed for s in shards) == len(plan)
    assert all(s.executed + s.deferred == s.misses for s in shards)
    # Any process sharing the cache dir can assemble the full result.
    merged = run_market_sweep(base, scenario=scenario, store=RunStore(tmp_path))
    assert merged.execution.executed == 0
    assert merged.complete
    reference = run_market_sweep(base, scenario=scenario)
    assert merged.rows == reference.rows


def test_shard_validation(tmp_path):
    with pytest.raises(ValueError):
        execute_plan([small_config()], RunStore(tmp_path), shard=(2, 2))


def test_incomplete_assembly_is_flagged(tmp_path):
    # Deterministic partial store: only the first level's document exists
    # (as if a peer shard owning the second level had not finished yet).
    base = small_config()
    scenario = mtbf_market_scenario((None, 3600.0))
    store = RunStore(tmp_path)
    first = scenario.configs(base)[0]
    store.record(first, first.execute())
    result = assemble_market_sweep(store, scenario, base)
    assert not result.complete
    assert len(result.rows) == len(base.providers)
    assert "incomplete" in result.table()


# -- market units under the supervisor -----------------------------------------

NO_SLEEP = dict(backoff_base=0.0, sleep=lambda seconds: None)
SCENARIO = mtbf_market_scenario((None, 3600.0))


def test_transient_market_failure_is_retried(tmp_path, monkeypatch):
    real = MarketConfig.execute
    calls = []

    def flaky(self, *budgets):
        calls.append(self.digest)
        if len(calls) == 1:
            raise RuntimeError("transient resource blip")
        return real(self, *budgets)

    monkeypatch.setattr(MarketConfig, "execute", flaky)
    store = RunStore(tmp_path)
    execution = execute_plan(market_plan(SCENARIO, small_config()), store,
                             execution=ExecutionPolicy(**NO_SLEEP))
    assert execution.retries == 1
    assert execution.failed == ()
    assert calls[0] == calls[1]  # the failed unit itself was re-run
    assert store.failures() == {}
    monkeypatch.setattr(MarketConfig, "execute", real)
    assert run_market_sweep(small_config(), SCENARIO, RunStore(tmp_path)).complete


def test_exhausted_market_unit_is_journaled_then_resolved(tmp_path, monkeypatch):
    base = small_config()
    poisoned = SCENARIO.configs(base)[1]
    real = MarketConfig.execute

    def poison(self, *budgets):
        if self.digest == poisoned.digest:
            raise ValueError("deterministic poison")
        return real(self, *budgets)

    monkeypatch.setattr(MarketConfig, "execute", poison)
    policy = ExecutionPolicy(max_retries=1, **NO_SLEEP)
    execution = execute_plan(market_plan(SCENARIO, base), RunStore(tmp_path),
                             execution=policy)
    assert execution.failed == (poisoned.digest,)
    journal = [json.loads(line) for line in
               (tmp_path / "failures.jsonl").read_text().splitlines()]
    assert [r["digest"] for r in journal] == [poisoned.digest]
    assert (journal[0]["policy"], journal[0]["model"]) == ("risky", "market")
    record = RunStore(tmp_path).failures()[poisoned.digest]
    assert record.attempts == 2 and "deterministic poison" in record.message
    assert not assemble_market_sweep(RunStore(tmp_path), SCENARIO, base).complete

    monkeypatch.setattr(MarketConfig, "execute", real)
    store = RunStore(tmp_path)
    rerun = run_market_sweep(base, SCENARIO, store)
    assert rerun.execution.executed == 1
    assert rerun.complete
    assert store.failures() == {}
    assert RunStore(tmp_path).failures() == {}


def test_pool_rows_match_serial(tmp_path):
    base = small_config()
    serial = run_market_sweep(base, SCENARIO)
    store = RunStore(tmp_path)
    execution = execute_plan(market_plan(SCENARIO, base), store, n_workers=2)
    assert execution.complete and execution.executed == 2
    assert assemble_market_sweep(store, SCENARIO, base).rows == serial.rows


def test_pool_sweep_survives_sigkilled_worker(tmp_path):
    base = small_config()
    serial = run_market_sweep(base, SCENARIO)
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    store = RunStore(tmp_path / "store")
    with crashkit.crashing_units(chaos_dir, 1):
        execution = execute_plan(
            market_plan(SCENARIO, base), store, n_workers=2,
            execution=ExecutionPolicy(max_retries=3, backoff_base=0.001,
                                      backoff_cap=0.002, poll_interval=0.02),
        )
    assert len(list(chaos_dir.glob("*.killed"))) == 1
    assert execution.complete
    rows = assemble_market_sweep(RunStore(tmp_path / "store"), SCENARIO, base).rows
    assert rows == serial.rows


# -- the §3 claim --------------------------------------------------------------

def test_unreliable_provider_loses_the_market(tmp_path):
    """Falling MTBF must cost the risky provider share, loyalty, revenue."""
    result = run_market_sweep(
        small_config(n_users=200, n_jobs=400),
        scenario=mtbf_market_scenario((None, 3600.0)),
        store=RunStore(tmp_path),
    )
    risky = {row.level: row for row in result.rows if row.provider == "risky"}
    assert risky[3600.0].final_share < risky[None].final_share
    assert risky[3600.0].loyal_users < risky[None].loyal_users
    assert risky[3600.0].revenue < risky[None].revenue
    assert risky[3600.0].violated > risky[None].violated
    # The document on disk is plain JSON a human can read.
    text = RunStore(tmp_path).run_path(small_config(n_users=200, n_jobs=400)).read_text()
    assert json.loads(text)["format"] == MARKET_RUN_FORMAT
