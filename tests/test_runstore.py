"""Unit tests for the content-addressed run store (RunKey + RunStore)."""

import json

import pytest

from repro.core.objectives import ObjectiveSet
from repro.experiments.runstore import (
    RUN_VERSION,
    RunKey,
    RunStore,
    StoreError,
    config_from_dict,
    config_to_dict,
    load_run_document,
    objectives_from_dict,
    objectives_to_dict,
)
from repro.experiments.scenarios import ExperimentConfig

CONFIG = ExperimentConfig(n_jobs=50, total_procs=32)
OBJS = ObjectiveSet(wait=123.456789, sla=87.5, reliability=92.25, profitability=-3.125)


# -- RunKey --------------------------------------------------------------------


def test_run_key_is_stable_across_processes():
    # The digest must depend only on content, never on object identity or
    # dict ordering — recomputing from an equal config yields the same hash.
    a = RunKey(CONFIG, "FCFS-BF", "bid")
    b = RunKey(ExperimentConfig(n_jobs=50, total_procs=32), "FCFS-BF", "bid")
    assert a.digest == b.digest
    assert len(a.digest) == 64  # sha256 hex


def test_run_key_digest_is_pinned():
    # Memoising the digest must not move a single stored document: these
    # are the digests every earlier store was written under.
    assert RunKey(CONFIG, "FCFS-BF", "bid").digest == (
        "6c19c036e6946baf98a48896f868795158b821ac3be9bb3ff7f55641366c3bc9"
    )
    # ``20 == 20.0`` but serialises differently: the memo must not merge them.
    assert RunKey(CONFIG.with_values(pct_high_urgency=20), "FCFS-BF", "bid").digest == (
        "c741ebd3a49224b946460e2827a757e9a8a45118f2869863ccf54ae70bb6d608"
    )
    faulty = CONFIG.with_values(fault_mtbf=7200.0, fault_domain_size=4)
    assert RunKey(faulty, "Libra", "commodity").digest == (
        "3b8694f039434801ed8a39590c173e8173aeb25a99ea8361686186d45d43b1c4"
    )


def test_grid_execution_and_assembly_derive_each_digest_once(tmp_path):
    from repro.experiments.pipeline import assemble_grid, execute_plan, grid_plan
    from repro.experiments.runstore import _run_digest
    from repro.experiments.scenarios import scenario_by_name

    base = ExperimentConfig(n_jobs=12, total_procs=16, seed=424242)
    args = (["FCFS-BF", "Libra"], "bid", base, "A", [scenario_by_name("job mix")])
    _run_digest.cache_clear()
    plan = grid_plan(*args)
    store = RunStore(tmp_path)
    execution = execute_plan(plan, store)
    assert execution.executed > 0
    assemble_grid(store, *args)
    distinct = {unit.digest for unit in plan}
    assert _run_digest.cache_info().misses == len(distinct)


def test_run_key_distinguishes_every_input():
    base = RunKey(CONFIG, "FCFS-BF", "bid").digest
    assert RunKey(CONFIG.with_values(seed=1), "FCFS-BF", "bid").digest != base
    assert RunKey(CONFIG, "EDF-BF", "bid").digest != base
    assert RunKey(CONFIG, "FCFS-BF", "commodity").digest != base


def test_config_dict_roundtrip():
    config = CONFIG.with_values(arrival_delay_factor=0.1, inaccuracy_pct=40.0)
    assert config_from_dict(config_to_dict(config)) == config
    with pytest.raises(StoreError):
        config_from_dict({"not_a_field": 1})


def test_objectives_roundtrip_is_bit_exact():
    back = objectives_from_dict(json.loads(json.dumps(objectives_to_dict(OBJS))))
    assert back == OBJS  # float repr round-trips losslessly through JSON


# -- RunStore, memory layer ----------------------------------------------------


def test_memory_store_get_put():
    store = RunStore()
    assert store.get(CONFIG, "FCFS-BF", "bid") is None
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    assert store.get(CONFIG, "FCFS-BF", "bid") == OBJS
    assert len(store) == 1
    assert store.run_path(RunKey(CONFIG, "FCFS-BF", "bid")) is None


# -- RunStore, disk layer ------------------------------------------------------


def test_disk_store_roundtrip_across_instances(tmp_path):
    RunStore(tmp_path).put(CONFIG, "FCFS-BF", "bid", OBJS)
    fresh = RunStore(tmp_path)
    assert len(fresh) == 0  # memory layer cold
    assert fresh.get(CONFIG, "FCFS-BF", "bid") == OBJS  # served from disk
    assert len(fresh) == 1  # promoted into memory


def test_disk_layout_is_one_document_per_run(tmp_path):
    store = RunStore(tmp_path)
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    store.put(CONFIG, "EDF-BF", "bid", OBJS)
    digests = store.disk_digests()
    assert digests == {
        RunKey(CONFIG, "FCFS-BF", "bid").digest,
        RunKey(CONFIG, "EDF-BF", "bid").digest,
    }
    for digest in digests:
        path = tmp_path / "runs" / digest[:2] / f"{digest}.json"
        assert path.is_file()
        doc = json.loads(path.read_text())
        assert doc["key"] == digest


def test_corrupt_document_is_a_miss_not_a_crash(tmp_path):
    store = RunStore(tmp_path)
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    path = store.run_path(RunKey(CONFIG, "FCFS-BF", "bid"))
    path.write_text(path.read_text()[: len(path.read_text()) // 2])  # truncate
    fresh = RunStore(tmp_path)
    assert fresh.get(CONFIG, "FCFS-BF", "bid") is None
    # And the store recovers by overwriting the bad entry.
    fresh.put(CONFIG, "FCFS-BF", "bid", OBJS)
    assert RunStore(tmp_path).get(CONFIG, "FCFS-BF", "bid") == OBJS


def test_foreign_and_newer_documents_are_skipped(tmp_path):
    store = RunStore(tmp_path)
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    path = store.run_path(RunKey(CONFIG, "FCFS-BF", "bid"))
    doc = json.loads(path.read_text())
    doc["version"] = RUN_VERSION + 1
    path.write_text(json.dumps(doc))
    assert RunStore(tmp_path).get(CONFIG, "FCFS-BF", "bid") is None
    doc["version"] = RUN_VERSION
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    assert RunStore(tmp_path).get(CONFIG, "FCFS-BF", "bid") is None


def test_load_run_document_reports_newer_version_clearly():
    key = RunKey(CONFIG, "FCFS-BF", "bid")
    doc = key.document(OBJS)
    doc["version"] = RUN_VERSION + 7
    with pytest.raises(StoreError, match="newer"):
        load_run_document(doc)
    with pytest.raises(StoreError, match="format"):
        load_run_document({"format": "nope"})


def test_atomic_writes_leave_no_temp_files(tmp_path):
    store = RunStore(tmp_path)
    for policy in ("FCFS-BF", "EDF-BF", "Libra"):
        store.put(CONFIG, policy, "bid", OBJS)
    leftovers = [p for p in tmp_path.rglob("*.tmp*")]
    assert leftovers == []


def test_stats_summary(tmp_path):
    store = RunStore(tmp_path)
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    stats = store.stats()
    assert len(store) == 1
    assert stats == {"disk_runs": 1, "failures": 0, "cache_dir": str(tmp_path)}
    assert RunStore().stats()["cache_dir"] is None


# -- quarantine of corrupt documents -------------------------------------------


def test_corrupt_document_is_quarantined_for_diagnosis(tmp_path):
    from repro.perf import capture as perf_capture

    store = RunStore(tmp_path)
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    path = store.run_path(RunKey(CONFIG, "FCFS-BF", "bid"))
    bad_bytes = path.read_text()[:25]
    path.write_text(bad_bytes)
    fresh = RunStore(tmp_path)
    with perf_capture() as perf:
        assert fresh.get(CONFIG, "FCFS-BF", "bid") is None
        counters = dict(perf.counters)
    assert counters.get("runstore.quarantined") == 1
    # The evidence moved aside rather than being deleted or left in place.
    assert not path.exists()
    quarantined = tmp_path / "quarantine" / path.name
    assert quarantined.read_text() == bad_bytes


def test_quarantine_never_overwrites_earlier_evidence(tmp_path):
    store = RunStore(tmp_path)
    path = store.run_path(RunKey(CONFIG, "FCFS-BF", "bid"))
    for generation in ("first crash", "second crash"):
        store.put(CONFIG, "FCFS-BF", "bid", OBJS)
        path.write_text(generation)
        assert RunStore(tmp_path).get(CONFIG, "FCFS-BF", "bid") is None
    qdir = tmp_path / "quarantine"
    contents = {p.read_text() for p in qdir.iterdir()}
    assert contents == {"first crash", "second crash"}


# -- failure journal -----------------------------------------------------------


def make_failure(digest: str, kind: str = "timeout") -> "FailureRecord":
    from repro.experiments.errors import FailureRecord

    return FailureRecord(
        digest=digest, policy="FCFS-BF", model="bid",
        kind=kind, message="event budget exhausted", attempts=3,
    )


def test_failure_journal_roundtrips_across_instances(tmp_path):
    digest = RunKey(CONFIG, "FCFS-BF", "bid").digest
    store = RunStore(tmp_path)
    store.record_failure(make_failure(digest))
    assert (tmp_path / "failures.jsonl").exists()
    fresh = RunStore(tmp_path)
    record = fresh.failures()[digest]
    assert record.kind == "timeout"
    assert record.attempts == 3
    assert fresh.failure_for(digest) == record
    assert fresh.stats()["failures"] == 1


def test_successful_put_resolves_a_journaled_failure(tmp_path):
    digest = RunKey(CONFIG, "FCFS-BF", "bid").digest
    store = RunStore(tmp_path)
    store.record_failure(make_failure(digest))
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    # The journal stays append-only, but the run document wins …
    assert digest in (tmp_path / "failures.jsonl").read_text()
    assert store.failures() == {}
    # … including from a cold store that only sees the disk state.
    assert RunStore(tmp_path).failures() == {}


def test_latest_journal_record_wins_and_bad_lines_are_skipped(tmp_path):
    digest = RunKey(CONFIG, "FCFS-BF", "bid").digest
    store = RunStore(tmp_path)
    store.record_failure(make_failure(digest, kind="crash"))
    store.record_failure(make_failure(digest, kind="timeout"))
    with open(tmp_path / "failures.jsonl", "a") as fh:
        fh.write("not json at all\n")
    assert RunStore(tmp_path).failures()[digest].kind == "timeout"


def test_memory_only_store_journals_in_memory():
    store = RunStore()
    store.record_failure(make_failure("f" * 64))
    assert store.failures()["f" * 64].kind == "timeout"


# -- schema migration (schema 1 → 2: the nested faults block) ------------------


def test_schema_bump_invalidates_pre_fault_cache(tmp_path, monkeypatch):
    """A grid cached before ``FaultConfig`` existed must be a clean miss.

    Simulates a schema-1 store by monkeypatching ``SCHEMA_VERSION`` back to
    1 while writing (the digest covers the schema, so the old entry lands
    under a different key), then verifies current code neither hits it nor
    crashes on it — it simply re-simulates and writes a fresh schema-2
    document alongside.
    """
    import repro.experiments.runstore as rs

    monkeypatch.setattr(rs, "SCHEMA_VERSION", 1)
    old_store = RunStore(tmp_path)
    old_store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    old_digest = RunKey(CONFIG, "FCFS-BF", "bid").digest
    monkeypatch.undo()

    store = RunStore(tmp_path)
    new_digest = RunKey(CONFIG, "FCFS-BF", "bid").digest
    assert new_digest != old_digest  # schema version is part of the identity
    assert store.get(CONFIG, "FCFS-BF", "bid") is None  # clean miss
    store.put(CONFIG, "FCFS-BF", "bid", OBJS)
    assert store.get(CONFIG, "FCFS-BF", "bid") == OBJS
    assert {old_digest, new_digest} <= store.disk_digests()


@pytest.mark.filterwarnings("ignore:FaultConfig")
def test_fault_config_roundtrips_and_addresses_runs():
    faulty = CONFIG.with_values(
        fault_mtbf=7200.0, fault_recovery="checkpoint",
        fault_schedule=((10.0, 3, 60.0),), fault_model="scripted",
    )
    assert faulty.faults.enabled
    back = config_from_dict(json.loads(json.dumps(config_to_dict(faulty))))
    assert back == faulty
    # Every fault knob must change the content address.
    base = RunKey(faulty, "FCFS-BF", "bid").digest
    assert RunKey(CONFIG, "FCFS-BF", "bid").digest != base
    assert (
        RunKey(faulty.with_values(fault_recovery="resubmit"), "FCFS-BF", "bid").digest
        != base
    )
    assert RunKey(faulty.with_values(fault_mttr=1.0), "FCFS-BF", "bid").digest != base


def test_malformed_faults_block_is_a_store_error():
    doc = config_to_dict(CONFIG)
    doc["faults"] = {"no_such_fault_field": True}
    with pytest.raises(StoreError, match="faults"):
        config_from_dict(doc)


# -- merge / sync (the farm's store convergence path) --------------------------


def seeded_store(path, policies=("FCFS-BF",)) -> RunStore:
    store = RunStore(path)
    for policy in policies:
        store.put(CONFIG, policy, "bid", OBJS)
    return store


def test_merge_copies_new_runs_and_dedupes_identical_bytes(tmp_path):
    dest = seeded_store(tmp_path / "dest", policies=("FCFS-BF",))
    src = seeded_store(tmp_path / "src", policies=("FCFS-BF", "Libra"))
    report = dest.merge_from(src)
    assert (report.runs_copied, report.runs_deduped) == (1, 1)
    assert report.conflicts == report.corrupt == 0
    assert dest.disk_digests() == src.disk_digests()
    # The merged run is readable through the normal lookup path …
    assert RunStore(tmp_path / "dest").get(CONFIG, "Libra", "bid") == OBJS
    # … and a repeated merge is a pure dedupe.
    again = dest.merge_from(src)
    assert (again.runs_copied, again.runs_deduped) == (0, 2)


def test_merge_conflict_quarantines_both_sides_and_continues(tmp_path):
    from repro.perf import capture as perf_capture

    dest = seeded_store(tmp_path / "dest", policies=("FCFS-BF", "Libra"))
    src = seeded_store(tmp_path / "src", policies=("FCFS-BF", "EDF-BF"))
    digest = RunKey(CONFIG, "FCFS-BF", "bid").digest
    # Same digest, different bytes: a forged objective value on the source.
    path = src.run_path(RunKey(CONFIG, "FCFS-BF", "bid"))
    doc = json.loads(path.read_text())
    doc["objectives"]["avg_wait_time"] = 999.0
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    with perf_capture() as perf:
        report = dest.merge_from(src)
        assert perf.counters.get("runstore.quarantined") == 2  # one per side
    assert report.conflicts == 1
    assert report.runs_copied == 1  # EDF-BF still merged — one bad cell
    # Both sides of the conflict are preserved as evidence …
    quarantined = list((tmp_path / "dest" / "quarantine").glob(f"{digest}*"))
    assert len(quarantined) == 2
    # … the cell is a re-runnable miss, and the source store is untouched.
    assert digest not in dest.disk_digests()
    assert dest.get(CONFIG, "FCFS-BF", "bid") is None
    assert digest in src.disk_digests()


def test_merge_quarantines_corrupt_source_documents(tmp_path):
    dest = RunStore(tmp_path / "dest")
    src = seeded_store(tmp_path / "src", policies=("FCFS-BF", "Libra"))
    path = src.run_path(RunKey(CONFIG, "FCFS-BF", "bid"))
    path.write_text('{"format": "repro-run", "version": 1, "key"')  # truncated

    report = dest.merge_from(src)
    assert (report.runs_copied, report.corrupt) == (1, 1)
    assert list((tmp_path / "dest" / "quarantine").glob("*.json*"))
    assert len(dest.disk_digests()) == 1


def test_merge_appends_failure_journal_latest_record_wins(tmp_path):
    digest = "a" * 64
    dest = RunStore(tmp_path / "dest")
    dest.record_failure(make_failure(digest, kind="crash"))
    src = RunStore(tmp_path / "src")
    src.record_failure(make_failure(digest, kind="timeout"))

    report = dest.merge_from(src)
    assert report.failure_records == 1
    # The source's record was appended after ours, so it wins …
    assert RunStore(tmp_path / "dest").failures()[digest].kind == "timeout"
    # … and both lines are still in the append-only journal.
    journal = (tmp_path / "dest" / "failures.jsonl").read_text().splitlines()
    assert len(journal) == 2


def test_merge_requires_disk_backing():
    with pytest.raises(StoreError, match="disk-backed"):
        RunStore().merge_from(RunStore())


def test_merge_report_sums_and_summarises():
    from repro.experiments.runstore import MergeReport

    total = MergeReport(runs_copied=2, conflicts=1) + MergeReport(
        runs_copied=3, corrupt=1, failure_records=4
    )
    assert (total.runs_copied, total.conflicts, total.corrupt) == (5, 1, 1)
    assert "5 runs" in total.summary() and "1 conflicts" in total.summary()
    assert total.to_dict()["failure_records"] == 4


# -- the document tree is the whole store --------------------------------------


def test_record_and_merge_write_no_index(tmp_path):
    src = seeded_store(tmp_path / "src", policies=("FCFS-BF", "Libra"))
    dest = RunStore(tmp_path / "dest")
    dest.merge_from(src)
    assert sorted(p.name for p in (tmp_path / "src").iterdir()) == ["runs"]
    assert sorted(p.name for p in (tmp_path / "dest").iterdir()) == ["runs"]


def old_index_line(key: RunKey) -> str:
    """One ``index.jsonl`` line as stores before the document tree wrote them."""
    return json.dumps({
        "format": "repro-run", "key": key.digest, "model": key.model,
        "n_jobs": key.config.n_jobs, "policy": key.policy, "seed": key.config.seed,
    }, sort_keys=True) + "\n"


def test_a_store_with_an_old_index_still_resumes_and_merges(tmp_path):
    from repro.experiments.pipeline import execute_plan

    keys = [RunKey(CONFIG, policy, "bid") for policy in ("FCFS-BF", "Libra", "EDF-BF")]
    src = seeded_store(tmp_path / "src", policies=("FCFS-BF", "Libra", "EDF-BF"))
    # Stale lines too: a duplicate, a dead digest and a torn append.
    index = "".join(map(old_index_line, keys + keys[:1]))
    index += old_index_line(RunKey(CONFIG, "SJF-BF", "bid")) + "not json\n"
    (tmp_path / "src" / "index.jsonl").write_text(index)
    (tmp_path / "dest").mkdir()
    (tmp_path / "dest" / "index.jsonl").write_text(old_index_line(keys[0]))

    resumed = execute_plan(keys, RunStore(tmp_path / "src"))
    assert (resumed.hits, resumed.misses) == (3, 0)
    report = RunStore(tmp_path / "dest").merge_from(src)
    assert (report.runs_copied, report.corrupt) == (3, 0)
    dest = RunStore(tmp_path / "dest")
    assert dest.disk_digests() == src.disk_digests() == {k.digest for k in keys}
    assert all(dest.lookup(key) == OBJS for key in keys)
    # Neither index is read, rewritten or deleted.
    assert (tmp_path / "src" / "index.jsonl").read_text() == index
    assert (tmp_path / "dest" / "index.jsonl").read_text() == old_index_line(keys[0])
