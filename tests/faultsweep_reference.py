"""The fault sweep as a serial loop, kept to check the pipeline path.

:func:`reference_fault_sweep` is how fault sweeps ran before they became
one-scenario grids: every policy × level through ``run_single`` in a
loop, then the scenario re-run through :func:`run_scenario` (per-policy
runs, §4.1 normalisation, Eqs. 5–6), then an equal-weight integration.
It shares nothing with :mod:`repro.experiments.pipeline` but
``run_single`` and the risk arithmetic, so ``run_fault_sweep`` can be
held to it with ``==``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.integrated import integrated_risk
from repro.core.normalize import normalize_runs
from repro.core.objectives import OBJECTIVES, Objective
from repro.core.separate import SeparateRisk, separate_risk
from repro.experiments.runner import run_single
from repro.experiments.scenarios import ExperimentConfig, Scenario


def memo_run(memo: dict, config: ExperimentConfig, policy: str, model_name: str):
    """``run_single``, memoised in ``memo`` per ``(config, policy, model)``."""
    key = (config, policy, model_name)
    if key not in memo:
        memo[key] = run_single(config, policy, model_name)
    return memo[key]


def run_scenario(
    scenario: Scenario,
    policies: Sequence[str],
    model_name: str,
    base: ExperimentConfig,
    memo: Optional[dict] = None,
    wait_method: str = "grid-max",
) -> dict[Objective, dict[str, SeparateRisk]]:
    """Separate risk of every objective for one scenario: each policy over
    the scenario's values, normalised together, reduced per policy."""
    configs = scenario.configs(base)
    memo = {} if memo is None else memo
    runs = [
        [memo_run(memo, cfg, policy, model_name) for cfg in configs]
        for policy in policies
    ]
    normalized = normalize_runs(runs, wait_method=wait_method)
    return {
        objective: {
            policy: separate_risk(normalized[objective][p])
            for p, policy in enumerate(policies)
        }
        for objective in Objective
    }


def reference_fault_sweep(
    policies: Sequence[str],
    model_name: str,
    fault_base: ExperimentConfig,
    scenario: Scenario,
    set_name: str = "A",
):
    """``(rows, separate, integrated)`` of one fault sweep, computed serially.

    ``rows`` are ``(level, availability, policy, objectives)`` tuples,
    policy by policy, each over the sweep's levels.
    """
    memo: dict = {}
    base = fault_base.for_set(set_name)
    rows = [
        (level, config.faults.availability, policy,
         memo_run(memo, config, policy, model_name))
        for policy in policies
        for level, config in zip(scenario.values, scenario.configs(base))
    ]
    separate = run_scenario(scenario, policies, model_name, base, memo)
    integrated = {
        policy: integrated_risk({o: separate[o][policy] for o in OBJECTIVES})
        for policy in policies
    }
    return rows, separate, integrated
