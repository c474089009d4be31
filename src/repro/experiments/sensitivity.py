"""Tornado (one-at-a-time) sensitivity analysis.

Which Table VI knob moves each objective the most for a given policy?  For
every scenario, run the policy over the six varying values and record the
raw objective's low/high; the *swing* (high − low) sorted descending is the
classic tornado diagram.  This complements the risk analysis: volatility
says "this policy fluctuates", the tornado says *which knob* does it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.objectives import OBJECTIVES, Objective
from repro.experiments.pipeline import execute_plan
from repro.experiments.runstore import RunKey, RunStore
from repro.experiments.scenarios import SCENARIOS, ExperimentConfig, Scenario


@dataclass(frozen=True)
class TornadoBar:
    """One scenario's impact on one objective for one policy."""

    scenario: str
    objective: Objective
    low: float
    high: float
    at_default: float

    @property
    def swing(self) -> float:
        return self.high - self.low


def tornado_analysis(
    policy: str,
    model_name: str,
    base: ExperimentConfig,
    scenarios: Sequence[Scenario] = SCENARIOS,
    cache: Optional[RunStore] = None,
    n_workers: int = 1,
) -> dict[Objective, list[TornadoBar]]:
    """Per-objective tornado bars, widest swing first.

    All (default + per-scenario) runs are planned up front and executed
    through the unified pipeline, so they dedupe against — and checkpoint
    into — the given store and can fan out over a process pool.
    """
    cache = cache if cache is not None else RunStore()
    plan = [RunKey(base, policy, model_name)] + [
        RunKey(config, policy, model_name)
        for scenario in scenarios
        for config in scenario.configs(base)
    ]
    execute_plan(plan, cache, n_workers=n_workers)
    default = cache.get(base, policy, model_name)
    out: dict[Objective, list[TornadoBar]] = {obj: [] for obj in OBJECTIVES}
    for scenario in scenarios:
        results = [
            cache.get(cfg, policy, model_name) for cfg in scenario.configs(base)
        ]
        for objective in OBJECTIVES:
            values = [r.value(objective) for r in results]
            out[objective].append(
                TornadoBar(
                    scenario=scenario.name,
                    objective=objective,
                    low=min(values),
                    high=max(values),
                    at_default=default.value(objective),
                )
            )
    for objective in OBJECTIVES:
        out[objective].sort(key=lambda b: (-b.swing, b.scenario))
    return out


def format_tornado(
    bars: Sequence[TornadoBar], width: int = 40, title: str = ""
) -> str:
    """ASCII tornado diagram: one bar per scenario, widest first."""
    if not bars:
        return "(no bars)"
    lines = [title] if title else []
    max_swing = max(b.swing for b in bars) or 1.0
    name_w = max(len(b.scenario) for b in bars)
    for b in bars:
        filled = int(round(b.swing / max_swing * width))
        lines.append(
            f"{b.scenario.ljust(name_w)} |{'#' * filled}{' ' * (width - filled)}| "
            f"{b.low:10.2f} .. {b.high:10.2f} (swing {b.swing:10.2f})"
        )
    return "\n".join(lines)
