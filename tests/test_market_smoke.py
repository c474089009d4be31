"""Market smoke: a market sweep resumes from the run store.

A cold sweep into a cache directory executes its runs; a warm sweep from
a fresh handle on the same directory executes none, reproduces the cold
rows exactly, and still shows the risky provider losing market share as
its MTBF falls.  Through the CLI, a single market prints its header and
the risky provider, and a sweep run as two shards leaves nothing for the
unsharded run to execute.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments.marketsweep import default_market_config, run_market_sweep
from repro.experiments.runstore import RunStore

ENV = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))


def repro_cli(*args: str) -> str:
    """Run ``python -m repro ARGS`` in a fresh process; return its stdout."""
    return subprocess.run([sys.executable, "-m", "repro", *args], env=ENV,
                          capture_output=True, text=True, timeout=120,
                          check=True).stdout


def test_market_sweep_resumes_from_the_run_store(tmp_path):
    base = default_market_config(n_users=300, n_jobs=600)
    cache_dir = tmp_path
    cold = run_market_sweep(base, store=RunStore(cache_dir))
    assert cold.complete and cold.execution.executed > 0, cold.execution
    warm = run_market_sweep(base, store=RunStore(cache_dir))
    assert warm.execution.executed == 0, warm.execution
    assert warm.rows == cold.rows, "resumed sweep differs"
    risky = [r for r in warm.rows if r.provider == "risky"]
    assert risky[-1].final_share < risky[0].final_share, \
        "falling MTBF did not cost market share"
    print(warm.table())


def test_market_cli_smoke():
    out = repro_cli("market", "--users", "5000", "--jobs", "2000", "--mtbf", "14400")
    print(out)
    assert "risky" in out
    assert "market — users=5000 jobs=2000 seed=0" in out


def test_market_sweep_shards_through_the_cli(tmp_path):
    sweep = ("market", "--sweep", "mtbf", "--users", "300", "--jobs", "600",
             "--cache-dir", str(tmp_path))
    repro_cli(*sweep, "--shard", "1/2")
    repro_cli(*sweep, "--shard", "2/2")
    out = repro_cli(*sweep)
    print(out)
    assert " 0 executed" in out
