"""Extension benches — weight robustness and tornado sensitivity.

Paper §4.2 lets providers reweight the objectives; these benches answer the
follow-ups: *does the winner survive reweighting?* and *which Table VI knob
moves each objective most?*
"""

from conftest import one_shot

from repro.core.objectives import OBJECTIVES, Objective
from repro.core.weights import weight_sensitivity
from repro.experiments.report import format_table
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import scenario_by_name
from repro.experiments.sensitivity import format_tornado, tornado_analysis


def test_weight_robustness(benchmark, bid_grids, save_exhibit):
    def analyse():
        out = {}
        for set_name, grid in bid_grids.items():
            risks = {
                policy: profile.aggregate
                for policy, profile in grid.risk_profiles().items()
            }
            out[set_name] = weight_sensitivity(risks, resolution=4)
        return out

    results = one_shot(benchmark, analyse)
    rows = []
    for set_name, sens in results.items():
        assert abs(sum(sens.win_share.values()) - 1.0) < 1e-9
        for policy, share in sorted(sens.win_share.items(), key=lambda kv: -kv[1]):
            rows.append(
                {
                    "set": set_name,
                    "policy": policy,
                    "simplex_win_share": share,
                    "equal_weights_winner": policy == sens.equal_weights_winner,
                }
            )
    exhibit = format_table(
        rows,
        title=(
            "Weight robustness — share of the objective-weight simplex each "
            f"bid-model policy wins ({results['A'].n_points} weightings)"
        ),
    )
    save_exhibit("weight_robustness", exhibit)
    print("\n" + exhibit)


def test_tornado_libra_riskd(benchmark, base_config, save_exhibit):
    scenarios = [scenario_by_name(n) for n in
                 ("workload", "inaccuracy", "job mix", "deadline low mean")]

    def analyse():
        return tornado_analysis(
            "LibraRiskD", "bid", base_config.for_set("B"), scenarios, RunStore()
        )

    tornado = one_shot(benchmark, analyse)
    for objective in OBJECTIVES:
        assert len(tornado[objective]) == len(scenarios)

    sections = [
        format_tornado(tornado[obj], title=f"LibraRiskD — {obj.value} (bid, Set B)")
        for obj in (Objective.SLA, Objective.RELIABILITY, Objective.PROFITABILITY)
    ]
    exhibit = "\n\n".join(sections)
    save_exhibit("tornado_libra_riskd", exhibit)
    print("\n" + exhibit)
