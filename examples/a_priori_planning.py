#!/usr/bin/env python3
"""A priori risk analysis: from measured results to a deployment decision.

The paper's closing promise (§7): the a posteriori evaluation results "can
later be used to generate an a priori risk analysis of policies by
identifying possible risks for future utility computing situations."  This
example runs a measured grid, builds per-policy risk profiles, prints the
enterprise-style risk register, and issues deployment recommendations for
three different provider temperaments.

Run:  python examples/a_priori_planning.py
"""

from repro.core.apriori import recommend_policy, risk_register
from repro.core.objectives import Objective
from repro.experiments.runner import run_grid
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.policies import BID_POLICIES

SCENARIOS = [scenario_by_name(n) for n in ("workload", "inaccuracy", "job mix")]


def main() -> None:
    base = ExperimentConfig(n_jobs=150, total_procs=128)
    print("measuring (a posteriori): bid-based market, Set B, "
          f"{len(SCENARIOS)} scenarios x 6 values x {len(BID_POLICIES)} policies ...")
    grid = run_grid(BID_POLICIES, "bid", base, "B", SCENARIOS, RunStore())

    # -- risk profiles ---------------------------------------------------------
    print("\n=== per-policy risk profiles ===")
    for name, profile in grid.risk_profiles().items():
        overall = profile.overall()
        driver = max(
            (profile.highest_volatility[o] for o in Objective),
            key=lambda d: d.volatility,
        )
        print(f"{name:12s} performance={overall.performance:.3f} "
              f"volatility={overall.volatility:.3f}  "
              f"worst driver: {driver.objective.value} under varying "
              f"{driver.scenario} ({driver.severity.name})")

    # -- risk register -----------------------------------------------------------
    print("\n=== risk register (moderate and above) ===")
    for entry in risk_register(grid.separate)[:8]:
        print(f"  [{entry.severity.name:8s}] {entry.note}")

    # -- recommendations per temperament ------------------------------------------
    print("\n=== a priori deployment recommendations ===")
    temperaments = {
        "balanced (tolerance 0.20)": dict(volatility_tolerance=0.20),
        "risk-averse (tolerance 0.05)": dict(volatility_tolerance=0.05),
        "profit-first (profitability-weighted)": dict(
            volatility_tolerance=1.0,
            weights={
                Objective.WAIT: 0.1, Objective.SLA: 0.1,
                Objective.RELIABILITY: 0.1, Objective.PROFITABILITY: 0.7,
            },
        ),
    }
    for label, kwargs in temperaments.items():
        rec = recommend_policy(grid.separate, **kwargs)
        print(f"\n{label}:")
        print(f"  deploy {rec.policy}")
        print(f"  {rec.rationale}")
        if rec.alternatives:
            print(f"  alternatives: {', '.join(rec.alternatives)}")


if __name__ == "__main__":
    main()
