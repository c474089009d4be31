#!/usr/bin/env python3
"""Correlated fault domains: what correlation alone costs in risk.

Independent per-node MTBF processes understate real outage risk — racks
share power feeds and switches, so one tripped breaker downs a whole
correlated batch of nodes at once.  This example holds every marginal
failure law fixed and sweeps only the *cascade probability* (how likely
a node failure is to drag its rack-mates down), so the table isolates
what correlation alone does to each policy's integrated risk.

Run:  python examples/correlated_faults_study.py
"""

from repro.experiments.faultsweep import cascade_scenario, run_fault_sweep
from repro.experiments.scenarios import ExperimentConfig


def main() -> None:
    fault_base = ExperimentConfig(n_jobs=300, total_procs=64).with_values(
        fault_mtbf=8 * 86_400.0,
        fault_domain_size=8,
        fault_domain_mtbf=2 * 86_400.0,
        fault_domain_mttr=3_600.0,
    )
    result = run_fault_sweep(
        ["FCFS-BF", "EDF-BF", "Libra"],
        "bid",
        fault_base,
        cascade_scenario((0.0, 0.25, 0.5, 1.0)),
    )
    print("64 procs in racks of 8; rack outages every ~2 days, node MTBF 8 days")
    print("marginal failure laws held fixed — only the correlation is swept\n")
    print(result.table())
    print("\nthe same downtime budget hurts more when it arrives in "
          "correlated batches: wide jobs lose all their nodes at once, "
          "recovery work bunches up behind the repaired rack, and the "
          "deadline misses land in the integrated risk metric exactly "
          "like policy-caused ones.")


if __name__ == "__main__":
    main()
