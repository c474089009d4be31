"""The §3 market claim at population scale: risk knobs vs survival.

``examples/market_competition.py`` shows sixteen users abandoning a
hostile provider.  This example runs the same dynamic with a *million*
users on the vectorized cohort backend, then sweeps the risky provider's
MTBF to quantify the paper's motivation: a risky operating point costs
market share, loyal users, and (through SLA penalties) revenue.

Run from the repository root::

    PYTHONPATH=src python examples/population_market.py
"""

import time

from repro.experiments.marketsweep import (
    default_market_config,
    mtbf_market_scenario,
    run_market_sweep,
)
from repro.market.marketplace import Marketplace
from repro.market.provider import SyntheticSpec
from repro.market.stream import market_job_stream

# -- one big market ------------------------------------------------------------
N_USERS = 1_000_000
N_JOBS = 100_000

specs = [
    SyntheticSpec("risky", capacity=96.0, admission="greedy",
                  mtbf=86_400.0, mttr=3_600.0),
    SyntheticSpec("steady", capacity=96.0, admission="deadline"),
]
market = Marketplace(specs, n_users=N_USERS, seed=0)
t0 = time.perf_counter()
market.run(market_job_stream(N_JOBS, seed=0))
wall = time.perf_counter() - t0

print(f"{N_USERS:,} users, {N_JOBS:,} jobs in {wall:.1f}s "
      f"({2 * N_JOBS / wall:,.0f} user events/sec)\n")
for row in market.summary_rows():
    print(f"  {row['provider']:<8} final share {row['final_share']:.3f}  "
          f"revenue {row['revenue']:,.0f}  "
          f"loyal users {row['loyal_users']:,}")

# -- the risk sweep ------------------------------------------------------------
print("\nSweeping the risky provider's MTBF (smaller population, same story):\n")
result = run_market_sweep(
    default_market_config(n_users=10_000, n_jobs=10_000),
    scenario=mtbf_market_scenario((None, 86_400.0, 14_400.0, 3_600.0)),
)
print(result.table())
