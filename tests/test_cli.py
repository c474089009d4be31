"""Unit tests for the command-line interface."""

import argparse
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import runner
from repro.experiments.faultsweep import cascade_scenario, run_fault_sweep
from repro.experiments.runstore import RunKey
from repro.experiments.scenarios import ExperimentConfig
from repro.faults.config import CORRELATED_FAULTS, FaultConfig
from repro.policies import POLICIES
from repro.workload.swf import write_swf
from repro.workload.synthetic import SDSC_SP2, generate_trace

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_command(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "FCFS-BF" in out
    assert "LibraRiskD" in out
    assert "job mix" in out
    assert "profitability" in out


def test_table_commands(capsys):
    for number, needle in [(1, "Manage wait time"), (4, "ranking" if False else "A"),
                           (5, "FirstReward"), (6, "workload")]:
        code, out, _ = run_cli(capsys, "table", str(number))
        assert code == 0
        assert needle in out


def test_table_unknown_number(capsys):
    code, _, err = run_cli(capsys, "table", "9")
    assert code == 2
    assert "no table" in err


def test_figure_1_and_2(capsys):
    code, out, _ = run_cli(capsys, "figure", "1")
    assert code == 0
    assert "Sample risk analysis" in out
    code, out, _ = run_cli(capsys, "figure", "2")
    assert code == 0
    assert "utility" in out


def test_figure_unknown_number(capsys):
    code, _, err = run_cli(capsys, "figure", "42")
    assert code == 2
    assert "no figure" in err


def test_run_command(capsys):
    code, out, _ = run_cli(
        capsys, "run", "FCFS-BF", "--model", "bid", "--jobs", "40", "--procs", "32"
    )
    assert code == 0
    assert "jobs submitted" in out
    assert "profitability" in out


def test_run_unknown_policy(capsys):
    code, _, err = run_cli(capsys, "run", "NoSuchPolicy")
    assert code == 2
    assert "unknown policy" in err


def test_trace_synthetic(capsys):
    code, out, _ = run_cli(capsys, "trace", "--jobs", "100", "--seed", "3")
    assert code == 0
    assert "mean_runtime" in out


def test_trace_from_file(tmp_path, capsys):
    path = tmp_path / "t.swf"
    write_swf(generate_trace(SDSC_SP2.scaled(50), rng=1), path)
    code, out, _ = run_cli(capsys, "trace", "--file", str(path), "--last", "20")
    assert code == 0
    assert "n_jobs" in out
    assert "20" in out


def test_trace_fit(capsys):
    code, out, _ = run_cli(capsys, "trace", "--jobs", "300", "--seed", "1", "--fit")
    assert code == 0
    assert "fitted TraceModel" in out
    assert "twin relative errors" in out


@pytest.mark.slow
def test_frontier_command(capsys):
    code, out, _ = run_cli(
        capsys, "frontier", "--model", "bid", "--jobs", "25", "--procs", "32"
    )
    assert code == 0
    assert "efficient frontier" in out
    assert "risk_adjusted" in out


@pytest.mark.slow
def test_tornado_command(capsys):
    code, out, _ = run_cli(
        capsys, "tornado", "FCFS-BF", "--jobs", "25", "--procs", "32"
    )
    assert code == 0
    assert "FCFS-BF — wait" in out
    code, _, err = run_cli(capsys, "tornado", "Nope")
    assert code == 2


@pytest.mark.slow
def test_report_command(tmp_path, capsys):
    out_dir = tmp_path / "rep"
    code, out, _ = run_cli(capsys, "report", str(out_dir), "--jobs", "20", "--procs", "32")
    assert code == 0
    assert "report written" in out
    assert (out_dir / "README.md").exists()


@pytest.mark.slow
def test_recommend_command(capsys):
    code, out, _ = run_cli(
        capsys, "recommend", "--model", "bid", "--jobs", "30", "--procs", "32",
        "--register",
    )
    assert code == 0
    assert "recommended policy:" in out
    assert "dominant risk driver" in out


# -- run store commands --------------------------------------------------------


def test_run_cache_dir_checkpoints_then_hits(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    argv = ("run", "FCFS-BF", "--jobs", "30", "--procs", "32",
            "--cache-dir", store_dir)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "run checkpointed to" in out
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "from run store" in out
    assert "run store hit" in out


def test_grid_command_cold_then_warm(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    argv = ("grid", "--model", "bid", "--policies", "FCFS-BF", "Libra",
            "--scenario", "job mix", "--jobs", "20", "--procs", "16",
            "--cache-dir", store_dir)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "grid complete" in out
    assert "run store:" in out
    cold_misses = int(out.split(" unique misses")[0].rsplit(" ", 1)[-1])
    assert cold_misses > 0
    code, out, _ = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert " 0 unique misses" in out
    assert "grid complete" in out


def test_grid_partial_shard_defers_then_finishes(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    base = ("grid", "--model", "bid", "--policies", "FCFS-BF", "Libra",
            "--scenario", "job mix", "--jobs", "20", "--procs", "16",
            "--cache-dir", store_dir)
    code, out, _ = run_cli(capsys, *base, "--shard", "1/2")
    assert code == 0
    assert "partial shard complete" in out
    assert "grid complete" not in out
    code, out, _ = run_cli(capsys, *base, "--shard", "2/2")
    assert code == 0
    assert "partial shard complete" not in out
    assert "grid complete" in out


def test_grid_output_writes_grid_document(tmp_path, capsys):
    out_path = tmp_path / "grid.json"
    code, out, _ = run_cli(
        capsys, "grid", "--model", "bid", "--policies", "FCFS-BF", "Libra",
        "--scenario", "job mix", "--jobs", "20", "--procs", "16",
        "--output", str(out_path),
    )
    assert code == 0
    assert out_path.is_file()
    assert "grid analysis written to" in out


GRID_BASE = ("grid", "--model", "bid", "--policies", "FCFS-BF", "Libra",
             "--scenario", "job mix", "--jobs", "20", "--procs", "16")
FORCE_FAILURES = ("--max-sim-events", "10", "--max-retries", "0")


def test_grid_on_error_abort_exits_nonzero_naming_digests(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    code, out, err = run_cli(
        capsys, *GRID_BASE, *FORCE_FAILURES, "--cache-dir", store_dir,
    )
    assert code == 1  # abort is the default
    assert "failed after retries" in err
    assert "[timeout]" in err
    assert "--on-error degrade" in err
    assert "grid complete" not in out
    # Every failure was journaled in the store.
    journal = (tmp_path / "store" / "failures.jsonl").read_text().splitlines()
    assert len(journal) == 12


def test_grid_on_error_degrade_assembles_with_gap_markers(tmp_path, capsys):
    store_dir = str(tmp_path / "store")
    out_path = tmp_path / "grid.json"
    code, out, err = run_cli(
        capsys, *GRID_BASE, *FORCE_FAILURES, "--cache-dir", store_dir,
        "--on-error", "degrade", "--output", str(out_path),
    )
    assert code == 0
    assert "grid degraded" in out
    assert "12 gap cells" in out
    assert "ranking skipped" in out
    assert "timeout" in out  # the gaps table names each failure kind
    import json

    doc = json.loads(out_path.read_text())
    assert len(doc["gaps"]) == 12
    assert [None, None] in [
        pair
        for by_policy in doc["separate"].values()
        for by_scenario in by_policy.values()
        for pair in by_scenario.values()
    ]


def test_grid_retry_flags_recover_transient_watchdog_margin(tmp_path, capsys):
    # A generous watchdog never fires: the same flags, minus the poison.
    code, out, _ = run_cli(
        capsys, *GRID_BASE, "--max-sim-events", "1000000",
        "--run-timeout", "300", "--on-error", "degrade",
    )
    assert code == 0
    assert "grid complete" in out


def test_trace_lenient_skips_malformed_lines(tmp_path, capsys):
    import warnings

    from repro.workload.swf import SWFError

    path = tmp_path / "t.swf"
    write_swf(generate_trace(SDSC_SP2.scaled(30), rng=1), path)
    with open(path, "a") as fh:
        fh.write("garbage line that is not SWF\n")
    with pytest.raises(SWFError):  # strict mode propagates the parse error
        run_cli(capsys, "trace", "--file", str(path))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli(
            capsys, "trace", "--file", str(path), "--lenient"
        )
    assert code == 0
    assert "n_jobs" in out


def test_grid_argument_validation(tmp_path, capsys):
    code, _, err = run_cli(capsys, "grid", "--policies", "NotAPolicy")
    assert code == 2
    assert "unknown policies" in err
    code, _, err = run_cli(capsys, "grid", "--shard", "3/2")
    assert code == 2
    assert "shard index" in err
    code, _, err = run_cli(capsys, "grid", "--shard", "banana")
    assert code == 2
    assert "i/n" in err
    code, _, err = run_cli(capsys, "grid", "--resume")
    assert code == 2
    assert "--resume requires --cache-dir" in err


def test_market_single_run(capsys):
    code, out, _ = run_cli(
        capsys, "market", "--users", "80", "--jobs", "120", "--mtbf", "7200"
    )
    assert code == 0
    assert "risky" in out and "steady" in out
    assert "market — users=80 jobs=120 seed=0" in out
    assert "revenue" in out


def test_market_with_service_provider(capsys):
    code, out, _ = run_cli(
        capsys, "market", "--users", "40", "--jobs", "80",
        "--policy", "LibraRiskD", "--procs", "64",
    )
    assert code == 0
    assert "service" in out and "LibraRiskD" in out


def test_market_sweep_resumes_from_cache_dir(tmp_path, capsys):
    args = (
        "market", "--users", "60", "--jobs", "100", "--sweep", "mtbf",
        "--levels", "off", "3600", "--cache-dir", str(tmp_path),
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "Market sweep" in out
    assert "2 executed" in out
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "0 executed" in out and "2 hits" in out


def test_market_sweep_shards_like_grid(tmp_path, capsys):
    args = (
        "market", "--users", "60", "--jobs", "100", "--sweep", "mtbf",
        "--levels", "off", "3600", "86400",
    )
    for bad in ("3/2", "0/2", "x"):
        code, out, err = run_cli(capsys, *args, "--shard", bad)
        assert code == 2
        assert err.startswith("error: shard") and out == ""
    cached = ("--cache-dir", str(tmp_path))
    executed = 0
    for shard in ("1/2", "2/2"):
        code, out, _ = run_cli(capsys, *args, *cached, "--shard", shard)
        assert code == 0
        executed += int(out.split(" executed")[0].rsplit(" ", 1)[1])
    assert executed == 3
    code, out, _ = run_cli(capsys, *args, *cached)
    assert code == 0
    assert "0 executed" in out and "3 hits" in out
    code, reference, _ = run_cli(capsys, *args)
    assert code == 0
    assert out.split("\nplan:")[0] == reference.split("\nplan:")[0]


def test_market_argument_validation(capsys):
    code, _, err = run_cli(capsys, "market", "--providers", "1")
    assert code == 2
    assert "at least 2 providers" in err
    code, _, err = run_cli(capsys, "market", "--policy", "Nope")
    assert code == 2
    assert "unknown policy" in err
    code, _, err = run_cli(
        capsys, "market", "--sweep", "mtbf", "--policy", "FCFS-BF"
    )
    assert code == 2
    assert "single runs only" in err


#: every refused command line: each exits 2 with one ``error:`` line.
USAGE_ERRORS = [
    "table 9",
    "figure 42",
    "run NoSuch",
    "tornado Nope",
    "faults --policies Nope",
    "grid --policies Nope",
    "grid --scenario 'no such'",
    "grid --shard 3/2",
    "grid --shard banana",
    "grid --resume",
    "market --providers 1",
    "market --policy Nope",
    "market --sweep mtbf --policy FCFS-BF",
    "market --sweep mtbf --shard 3/2",
    "run FCFS-BF --jobs 20 --mtbf 3600 --cascade-prob 0.5",
    "run FCFS-BF --jobs 20 --mtbf 0",
    "grid --jobs 20 --mtbf 3600 --cascade-prob 0.5",
    "faults --jobs 20 --sweep correlated --domain-size 0",
]


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_usage_errors_exit_2_with_one_error_line(capsys, command):
    code, out, err = run_cli(capsys, *shlex.split(command))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# -- farm + store maintenance commands -----------------------------------------


def test_grid_farm_submits_instead_of_executing(tmp_path, capsys):
    farm_dir = tmp_path / "farm"
    code, out, _ = run_cli(
        capsys, "grid", "--policies", "FCFS-BF", "Libra",
        "--scenario", "job mix", "--jobs", "20", "--procs", "16",
        "--farm", str(farm_dir),
    )
    assert code == 0
    assert "submitted job" in out and "(12 units)" in out
    assert "farm serve" in out  # tells the operator how to drive it
    spooled = list((farm_dir / "spool").glob("*.json"))
    assert len(spooled) == 1

    code, out, _ = run_cli(capsys, "farm", "status", "--farm", str(farm_dir))
    assert code == 0
    assert "0 job(s), 1 spooled submission(s)" in out


def test_grid_farm_rejects_unknown_scenario(tmp_path, capsys):
    code, _, err = run_cli(capsys, "grid", "--scenario", "no such row",
                           "--farm", str(tmp_path / "farm"))
    assert code == 2
    assert "unknown scenario" in err


@pytest.mark.parametrize("farm", [False, True])
def test_grid_rejects_an_out_of_range_supervision_knob(tmp_path, capsys, farm):
    extra = ("--farm", str(tmp_path / "farm")) if farm else ()
    code, _, err = run_cli(capsys, "grid", "--jobs", "5", "--max-retries", "-1", *extra)
    assert code == 2
    assert "error: max_retries must be >= 0" in err
    assert not (tmp_path / "farm" / "spool").exists()


def test_farm_serve_self_execute_end_to_end(tmp_path, capsys):
    farm_dir = tmp_path / "farm"
    run_cli(
        capsys, "grid", "--policies", "FCFS-BF", "--scenario", "job mix",
        "--jobs", "8", "--procs", "16", "--farm", str(farm_dir),
    )
    code, out, _ = run_cli(
        capsys, "farm", "serve", "--farm", str(farm_dir),
        "--poll", "0.01", "--max-jobs", "1", "--timeout", "120",
        "--self-execute",
    )
    assert code == 0
    assert "accepted job" in out and "served 1 job(s)" in out
    from repro.farm.coordinator import Farm

    farm = Farm(farm_dir)
    [job_id] = farm.job_ids()
    assert farm.result_path(job_id).exists()
    code, out, _ = run_cli(capsys, "farm", "status", "--farm", str(farm_dir))
    assert code == 0
    assert "assembled" in out

    code, out, _ = run_cli(capsys, "farm", "sync", "--farm", str(farm_dir))
    assert code == 0
    assert "sync" in out and "6 runs on disk" in out


def test_farm_worker_exits_on_max_units(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "farm", "worker", "--farm", str(tmp_path / "farm"),
        "--worker-id", "w0", "--max-units", "0",
    )
    assert code == 0
    assert "exiting after 0 unit(s)" in out


def test_store_stats_and_merge(tmp_path, capsys):
    from repro.core.objectives import ObjectiveSet
    from repro.experiments.runstore import RunStore
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(n_jobs=10, total_procs=16)
    objs = ObjectiveSet(wait=1.0, sla=2.0, reliability=3.0, profitability=4.0)
    a = RunStore(tmp_path / "a")
    a.put(config, "FCFS-BF", "bid", objs)
    b = RunStore(tmp_path / "b")
    b.put(config, "Libra", "bid", objs)

    code, out, _ = run_cli(capsys, "store", "stats", str(tmp_path / "a"))
    assert code == 0
    assert "disk_runs" in out and "index_lines" not in out
    # hits, misses and memory_runs count a handle, not the directory
    assert "hits" not in out and "misses" not in out and "memory_runs" not in out

    (tmp_path / "dest").mkdir()
    code, out, _ = run_cli(
        capsys, "store", "merge", str(tmp_path / "dest"),
        str(tmp_path / "a"), str(tmp_path / "b"),
    )
    assert code == 0
    assert out.count("merged /") == 2 and "total:" in out
    assert len(RunStore(tmp_path / "dest").disk_digests()) == 2


@pytest.mark.parametrize("command", [
    ("stats", "{missing}"),
    ("merge", "{missing}", "{store}"),
    ("merge", "{store}", "{missing}"),
])
def test_store_commands_refuse_a_missing_directory(tmp_path, capsys, command):
    from repro.experiments.runstore import RunStore

    RunStore(tmp_path / "store")
    missing = tmp_path / "typo_dir"
    argv = [arg.format(missing=missing, store=tmp_path / "store") for arg in command]
    code, out, err = run_cli(capsys, "store", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: no such run store directory: {missing}\n"
    assert not missing.exists()


# -- repro faults ----------------------------------------------------------------

FAULTS = ("faults", "--policies", "FCFS-BF", "EDF-BF", "--jobs", "20", "--procs", "16")


def test_faults_mtbf_sweep(capsys):
    code, out, _ = run_cli(capsys, *FAULTS, "--levels", "21600", "86400")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "MTBF sweep — model=bid recovery=resubmit MTTR=1h"
    assert lines[2].split()[:3] == ["MTBF", "avail", "policy"]
    assert [line.split()[:3] for line in lines[3:7]] == [
        ["6h", "0.8571", "FCFS-BF"],
        ["24h", "0.9600", "FCFS-BF"],
        ["6h", "0.8571", "EDF-BF"],
        ["24h", "0.9600", "EDF-BF"],
    ]
    assert "volatility" in out


def test_faults_correlated_sweep_reruns_identically_from_the_store(tmp_path, capsys):
    args = (*FAULTS, "--sweep", "correlated", "--set", "B", "--levels", "0", "1",
            "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    assert cold.splitlines()[0] == (
        "cascade sweep — model=bid recovery=resubmit MTTR=1h "
        "racks of 8 rack-MTBF=24h rack-MTTR=1h"
    )
    assert "(4 runs on disk)" in cold
    code, warm, _ = run_cli(capsys, *args)
    assert code == 0
    assert warm == cold


def test_faults_matches_the_python_sweep(capsys):
    code, out, _ = run_cli(capsys, *FAULTS, "--sweep", "correlated", "--set", "B",
                           "--levels", "0", "1")
    assert code == 0
    fault_base = ExperimentConfig(n_jobs=20, total_procs=16).with_values(
        fault_mtbf=CORRELATED_FAULTS.mtbf,
        fault_domain_size=CORRELATED_FAULTS.domain_size,
        fault_domain_mtbf=CORRELATED_FAULTS.domain_mtbf,
        fault_domain_mttr=CORRELATED_FAULTS.domain_mttr,
        fault_cascade_delay=CORRELATED_FAULTS.cascade_delay,
    )
    result = run_fault_sweep(["FCFS-BF", "EDF-BF"], "bid", fault_base,
                             cascade_scenario((0.0, 1.0)), set_name="B")
    assert out == result.table() + "\n"


def test_faults_exit_1_naming_failed_digests(monkeypatch, tmp_path, capsys):
    real_run_single = runner.run_single

    def failing(config, policy, model, *args, **kwargs):
        if policy == "EDF-BF" and config.faults.mtbf == 21_600.0:
            raise RuntimeError("injected failure")
        return real_run_single(config, policy, model, *args, **kwargs)

    monkeypatch.setattr(runner, "run_single", failing)
    code, out, err = run_cli(capsys, *FAULTS, "--levels", "21600", "86400",
                             "--cache-dir", str(tmp_path))
    assert code == 1
    assert "1 runs failed after retries" in err
    assert "[failure] RuntimeError: injected failure" in err
    config = ExperimentConfig(n_jobs=20, total_procs=16).with_values(
        fault_mtbf=21_600.0, fault_mttr=3_600.0
    )
    assert RunKey(config, "EDF-BF", "bid").digest in err
    assert "MTBF sweep" not in out


def test_faults_rejects_unknown_policies(capsys):
    code, _, err = run_cli(capsys, "faults", "--policies", "FCFS-BF,EDF-BF")
    assert code == 2
    assert "unknown policies ['FCFS-BF,EDF-BF']" in err


# -- option inventory --------------------------------------------------------------

#: every subcommand's option strings, as ``build_parser()`` declares them.
OPTION_INVENTORY = {
    "": ["--help", "-h"],
    "farm": ["--help", "-h"],
    "farm serve": ["--exit-when-idle", "--farm", "--help", "--max-jobs", "--poll",
                   "--self-execute", "--timeout", "--workers", "-h"],
    "farm status": ["--farm", "--help", "-h"],
    "farm sync": ["--farm", "--help", "-h"],
    "farm worker": ["--exit-when-done", "--farm", "--help", "--lease", "--max-idle",
                    "--max-units", "--poll", "--worker-id", "-h"],
    "faults": ["--cache-dir", "--cascade-delay", "--domain-mtbf", "--domain-mttr",
               "--domain-size", "--fault-model", "--help", "--jobs", "--levels",
               "--model", "--mttr", "--policies", "--procs", "--recovery", "--seed",
               "--set", "--sweep", "-h"],
    "figure": ["--ascii", "--help", "--jobs", "--procs", "--seed", "--set", "-h"],
    "frontier": ["--help", "--jobs", "--model", "--procs", "--seed", "--set", "-h"],
    "grid": ["--cache-dir", "--cascade-delay", "--cascade-prob", "--domain-mtbf",
             "--domain-mttr", "--domain-size", "--elastic-interval",
             "--elastic-max-extra", "--farm", "--fault-model", "--help", "--jobs",
             "--max-retries", "--max-sim-events", "--max-sim-time", "--model",
             "--mtbf", "--mttr", "--on-error", "--output", "--policies", "--procs",
             "--recovery", "--resume", "--retry-backoff", "--run-timeout",
             "--scenario", "--seed", "--set", "--shard", "--workers", "-h"],
    "list": ["--help", "-h"],
    "market": ["--cache-dir", "--capacity", "--help", "--jobs", "--levels", "--mtbf",
               "--mttr", "--policy", "--procs", "--providers", "--seed", "--shard",
               "--share-window", "--sweep", "--users", "-h"],
    "recommend": ["--help", "--jobs", "--model", "--procs", "--register", "--seed",
                  "--set", "--tolerance", "-h"],
    "report": ["--cache-dir", "--help", "--jobs", "--procs", "--seed", "--workers",
               "-h"],
    "run": ["--cache-dir", "--cascade-delay", "--cascade-prob", "--domain-mtbf",
            "--domain-mttr", "--domain-size", "--elastic-interval",
            "--elastic-max-extra", "--fault-model", "--help", "--jobs", "--model",
            "--mtbf", "--mttr", "--procs", "--recovery", "--seed", "--set", "-h"],
    "store": ["--help", "-h"],
    "store merge": ["--help", "-h"],
    "store stats": ["--help", "-h"],
    "table": ["--help", "-h"],
    "tornado": ["--help", "--jobs", "--model", "--procs", "--seed", "--set", "-h"],
    "trace": ["--file", "--fit", "--help", "--jobs", "--last", "--lenient", "--seed",
              "-h"],
}


def option_inventory(parser, prefix=""):
    """``{"sub command": sorted option strings}`` over every subparser."""
    inventory = {
        prefix: sorted(s for action in parser._actions for s in action.option_strings)
    }
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                inventory.update(option_inventory(sub, f"{prefix} {name}".strip()))
    return inventory


def test_option_inventory_is_pinned():
    assert option_inventory(build_parser()) == OPTION_INVENTORY


# -- documented commands ------------------------------------------------------------

DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]


def documented_commands():
    """``(file, argv)`` of every ``python -m repro …`` line in a fenced block."""
    commands = []
    for path in DOCS:
        in_fence = False
        lines = iter(path.read_text().splitlines())
        for line in lines:
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if not in_fence or "python -m repro " not in line:
                continue
            while line.rstrip().endswith("\\"):
                line = line.rstrip()[:-1] + " " + next(lines)
            argv = shlex.split(line.split("python -m repro ", 1)[1], comments=True)
            if argv and argv[-1] == "&":
                argv.pop()
            commands.append((path.name, argv))
    return commands


def test_documented_commands_parse():
    commands = documented_commands()
    assert len(commands) >= 20
    parser = build_parser()
    for name, argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"{name}: `repro {shlex.join(argv)}` does not parse")
        named = list(getattr(args, "policies", None) or [])
        if getattr(args, "policy", None):
            named.append(args.policy)
        unknown = [policy for policy in named if policy not in POLICIES]
        assert not unknown, f"{name}: `repro {shlex.join(argv)}` names {unknown}"


# -- run/grid arguments → configuration ---------------------------------------------

#: ``repro run``/``repro grid`` command lines and the exact configuration
#: ``_config_from_args`` builds from each.
CONFIG_CASES = [
    ("run FCFS-BF", ExperimentConfig(n_jobs=200, total_procs=128, seed=0)),
    ("run Libra --jobs 50 --procs 64 --seed 7 --set B",
     ExperimentConfig(n_jobs=50, total_procs=64, seed=7, inaccuracy_pct=100.0)),
    ("run EDF-BF --jobs 120 --mtbf 43200 --recovery checkpoint",
     ExperimentConfig(n_jobs=120, faults=FaultConfig(
         enabled=True, mtbf=43_200.0, recovery="checkpoint"))),
    # --domain-mtbf alone enables faults, with 8-node racks by default.
    ("run FCFS-BF --jobs 120 --domain-mtbf 21600 --cascade-prob 0.5",
     ExperimentConfig(n_jobs=120, faults=FaultConfig(
         enabled=True, domain_size=8, domain_mtbf=21_600.0, cascade_prob=0.5))),
    # --mttr and --fault-model shape the node failures --domain-mtbf enables.
    ("run FCFS-BF --domain-mtbf 21600 --mttr 600 --fault-model weibull",
     ExperimentConfig(n_jobs=200, faults=FaultConfig(
         enabled=True, model="weibull", mttr=600.0, domain_size=8,
         domain_mtbf=21_600.0))),
    # Correlated knobs without a failure process enable nothing.
    ("run FCFS-BF --domain-size 4 --cascade-prob 0.5 --elastic-interval 900",
     ExperimentConfig(n_jobs=200)),
    ("grid --policies FCFS-BF Libra --jobs 20 --procs 16 --set B --mtbf 60000 "
     "--mttr 600 --fault-model weibull --domain-size 4 --domain-mtbf 25000 "
     "--domain-mttr 900 --cascade-prob 0.25 --cascade-delay 12 "
     "--elastic-interval 5000",
     ExperimentConfig(n_jobs=20, total_procs=16, inaccuracy_pct=100.0,
                      faults=FaultConfig(
                          enabled=True, model="weibull", mtbf=60_000.0,
                          mttr=600.0, domain_size=4, domain_mtbf=25_000.0,
                          domain_mttr=900.0, cascade_prob=0.25,
                          cascade_delay=12.0, elastic_model="stochastic",
                          elastic_interval=5_000.0, elastic_max_extra=4))),
    ("grid --jobs 20 --seed 3 --mtbf 50000 --recovery checkpoint "
     "--elastic-interval 5000 --elastic-max-extra 2",
     ExperimentConfig(n_jobs=20, seed=3, faults=FaultConfig(
         enabled=True, mtbf=50_000.0, recovery="checkpoint",
         elastic_model="stochastic", elastic_interval=5_000.0,
         elastic_max_extra=2))),
]


@pytest.mark.parametrize("command,expected", CONFIG_CASES,
                         ids=[command for command, _ in CONFIG_CASES])
def test_run_and_grid_arguments_map_to_config(command, expected):
    from repro.cli import _config_from_args

    args = build_parser().parse_args(shlex.split(command))
    assert _config_from_args(args) == expected
