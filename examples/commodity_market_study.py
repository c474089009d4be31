#!/usr/bin/env python3
"""Commodity market study: which policy should a provider deploy?

Reproduces the paper's §6.1 decision process at example scale: run the five
commodity-market policies over two Table VI scenarios for both estimate
sets, draw the four-objective integrated risk plot, and rank the policies
the way Tables III/IV do.

The paper's finding: Libra+$ is the best commodity policy when estimates
are accurate, but queue-based backfillers (SJF-BF) overtake the Libra
family once the trace's real — highly over-estimated — runtimes are used.

Run:  python examples/commodity_market_study.py
"""

from repro.core.objectives import OBJECTIVES
from repro.core.ranking import rank_policies
from repro.experiments.runner import run_grid
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.experiments.report import summarize_plot
from repro.policies import COMMODITY_POLICIES

SCENARIOS = [scenario_by_name("workload"), scenario_by_name("job mix"),
             scenario_by_name("deadline low mean")]


def main() -> None:
    base = ExperimentConfig(n_jobs=150, total_procs=128)
    cache = RunStore()

    for set_name in ("A", "B"):
        label = "accurate estimates" if set_name == "A" else "trace estimates"
        print(f"\n{'=' * 72}\nSet {set_name} ({label})\n{'=' * 72}")
        grid = run_grid(COMMODITY_POLICIES, "commodity", base, set_name,
                        SCENARIOS, cache)
        plot = grid.integrated_plot(OBJECTIVES)
        print(summarize_plot(plot, include_ascii=True))

        best = rank_policies(plot, by="performance")[0]
        print(
            f"\n-> deploy {best.policy}: max performance "
            f"{best.max_performance:.3f} at min volatility {best.min_volatility:.3f}"
        )

    print(f"\nsimulations run: {cache.misses} (cache reused {cache.hits})")


if __name__ == "__main__":
    main()
