"""Market smoke: a market sweep resumes from the run store.

A cold sweep into a cache directory executes its runs; a warm sweep from
a fresh handle on the same directory executes none, reproduces the cold
rows exactly, and still shows the risky provider losing market share as
its MTBF falls.
"""

from repro.experiments.marketsweep import default_market_config, run_market_sweep
from repro.experiments.runstore import RunStore


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
