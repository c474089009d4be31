"""Experiment harness reproducing the paper's evaluation (§5–6).

- :mod:`repro.experiments.scenarios` — the Table VI scenario grid: twelve
  scenarios × six varying values around a default configuration, with the
  Set A (accurate estimates) / Set B (trace estimates) split.
- :mod:`repro.experiments.runner` — builds workloads from configurations,
  runs policy × scenario grids with caching, and reduces raw objective
  values to separate/integrated risk analyses.
- :mod:`repro.experiments.sampledata` — the synthetic eight-policy example
  of Fig. 1 / Tables II–IV.
- :mod:`repro.experiments.figures` — one generator per paper figure (1–8).
- :mod:`repro.experiments.tables` — one generator per paper table (I–VI).
- :mod:`repro.experiments.report` — plain-text rendering helpers.
- :mod:`repro.experiments.faultsweep` — availability-vs-risk sweeps: one
  fault knob swept as a one-scenario grid through the same pipeline.
- :mod:`repro.experiments.marketsweep` — population-scale market sweeps:
  provider risk knobs vs final market share/revenue, content-addressed
  through the same :class:`~repro.experiments.runstore.RunStore`.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.experiments.marketsweep import (
        MarketConfig,
        MarketScenario,
        MarketSweepResult,
        default_market_config,
        run_market_sweep,
    )
    from repro.experiments.runner import GridAnalysis, build_workload, run_grid, run_single
    from repro.experiments.scenarios import SCENARIOS, ExperimentConfig, Scenario, scenario_by_name

__all__ = [
    "ExperimentConfig",
    "Scenario",
    "SCENARIOS",
    "scenario_by_name",
    "build_workload",
    "run_single",
    "run_grid",
    "GridAnalysis",
    "MarketConfig",
    "MarketScenario",
    "MarketSweepResult",
    "default_market_config",
    "run_market_sweep",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.experiments.marketsweep": (
        "MarketConfig",
        "MarketScenario",
        "MarketSweepResult",
        "default_market_config",
        "run_market_sweep",
    ),
    "repro.experiments.runner": ("GridAnalysis", "build_workload", "run_grid", "run_single"),
    "repro.experiments.scenarios": (
        "SCENARIOS",
        "ExperimentConfig",
        "Scenario",
        "scenario_by_name",
    ),
})
