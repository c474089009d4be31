"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism the paper leans on:

1. *Generous admission control* — §5.2: "we find that these policies
   without job admission control perform much worse".
2. *Backfilling discipline* — plain FCFS vs conservative vs EASY.
3. *LibraRiskD components* — dynamic feasibility alone vs adding the
   zero-risk node filter (the ICPP'06 mechanism).
4. *Libra+$ pricing weight β* — how the dynamic price component trades
   SLA acceptance for profitability.
"""

from conftest import one_shot

from repro.economy.models import make_model
from repro.economy.pricing import PricingParams
from repro.experiments.report import format_table
from repro.experiments.runner import build_workload
from repro.policies import make_policy
from repro.policies.libra_dollar import LibraDollar
from repro.policies.libra_riskd import LibraRiskD
from repro.service.provider import CommercialComputingService


def run_one(policy, model_name, config):
    jobs = build_workload(config)
    service = CommercialComputingService(policy, make_model(model_name),
                                         total_procs=config.total_procs)
    return service.run(jobs).objectives()


def row(label, objs):
    return {
        "variant": label,
        "wait_s": objs.wait,
        "SLA_pct": objs.sla,
        "reliability_pct": objs.reliability,
        "profitability_pct": objs.profitability,
    }


def test_ablation_admission_control(benchmark, base_config, save_exhibit):
    config = base_config.for_set("B")

    def ablation():
        return [
            row("FCFS-BF (generous admission)", run_one(make_policy("FCFS-BF"), "bid", config)),
            row("FCFS-BF (no admission control)",
                run_one(make_policy("FCFS-BF", admission_control=False), "bid", config)),
        ]

    rows = one_shot(benchmark, ablation)
    with_ac, without_ac = rows
    # §5.2: without admission control, accepted SLAs get broken.
    assert without_ac["reliability_pct"] <= with_ac["reliability_pct"]
    assert with_ac["reliability_pct"] >= 99.0
    exhibit = format_table(rows, title="Ablation 1 — generous admission control (bid model, Set B)")
    save_exhibit("ablation_admission_control", exhibit)
    print("\n" + exhibit)


def test_ablation_backfill_discipline(benchmark, base_config, save_exhibit):
    config = base_config.for_set("A")

    def ablation():
        return [
            row("FCFS (no backfilling)", run_one(make_policy("FCFS"), "bid", config)),
            row("Cons-BF (conservative)", run_one(make_policy("Cons-BF"), "bid", config)),
            row("FCFS-BF (EASY)", run_one(make_policy("FCFS-BF"), "bid", config)),
        ]

    rows = one_shot(benchmark, ablation)
    plain, cons, easy = rows
    # Backfilling must not hurt acceptance; EASY >= plain on SLA.
    assert easy["SLA_pct"] >= plain["SLA_pct"] - 1e-9
    assert cons["SLA_pct"] >= plain["SLA_pct"] - 1e-9
    exhibit = format_table(rows, title="Ablation 2 — backfilling discipline (bid model, Set A)")
    save_exhibit("ablation_backfill_discipline", exhibit)
    print("\n" + exhibit)


def test_ablation_variable_pricing(benchmark, base_config, save_exhibit):
    """§5.1: 'prices can be flat or variable' — the paper runs flat; this
    ablation prices peak hours at a multiple and watches the commodity
    trade-off between acceptance and revenue."""
    from repro.economy.pricing import TimeOfDayPricing

    config = base_config.for_set("A")

    def ablation():
        rows = []
        for mult in (1.0, 1.5, 2.0, 4.0):
            tariff = None if mult == 1.0 else TimeOfDayPricing(peak_multiplier=mult)
            policy = make_policy("FCFS-BF", tariff=tariff)
            label = "flat $1/s" if tariff is None else f"peak x{mult:g} (08-18h)"
            rows.append(row(f"FCFS-BF, {label}", run_one(policy, "commodity", config)))
        return rows

    rows = one_shot(benchmark, ablation)
    slas = [r["SLA_pct"] for r in rows]
    # Pricier peaks can only reject more (budget check), never accept more.
    assert all(slas[i] >= slas[i + 1] - 1e-9 for i in range(len(slas) - 1))
    exhibit = format_table(
        rows, title="Ablation 6 — flat vs time-of-day pricing (commodity, Set A)"
    )
    save_exhibit("ablation_variable_pricing", exhibit)
    print("\n" + exhibit)


class LibraDynamicOnly(LibraRiskD):
    """LibraRiskD without the zero-risk node filter (component ablation)."""

    name = "LibraRiskD-noFilter"
    exclude_risky_nodes = False


def test_ablation_libra_riskd_components(benchmark, base_config, save_exhibit):
    config = base_config.for_set("B")

    def ablation():
        return [
            row("Libra (static shares)", run_one(make_policy("Libra"), "bid", config)),
            row("+ dynamic feasibility", run_one(LibraDynamicOnly(), "bid", config)),
            row("+ zero-risk filter (LibraRiskD)",
                run_one(make_policy("LibraRiskD"), "bid", config)),
        ]

    rows = one_shot(benchmark, ablation)
    static, dynamic, full = rows
    # Dynamic feasibility roughly preserves acceptance (it frees capacity
    # from over-estimates but a lagging job can demand a full node).
    assert dynamic["SLA_pct"] >= static["SLA_pct"] - 6.0
    # The full mechanism must not lose utility relative to plain Libra
    # under inaccurate estimates (the ICPP'06 claim).
    assert full["profitability_pct"] >= static["profitability_pct"] - 1e-9
    exhibit = format_table(
        rows, title="Ablation 3 — LibraRiskD components (bid model, Set B)"
    )
    save_exhibit("ablation_libra_riskd_components", exhibit)
    print("\n" + exhibit)


def test_ablation_kill_at_estimate(benchmark, base_config, save_exhibit):
    """The paper's non-preemptive assumption vs the real-world discipline of
    killing a job once its requested time is exhausted (Set B, where 8 % of
    estimates are under-estimates)."""
    config = base_config.for_set("B")

    def ablation():
        return [
            row("FCFS-BF (let under-estimates run — the paper)",
                run_one(make_policy("FCFS-BF"), "bid", config)),
            row("FCFS-BF (kill at estimate limit)",
                run_one(make_policy("FCFS-BF", kill_at_estimate=True), "bid", config)),
        ]

    rows = one_shot(benchmark, ablation)
    let_run, kill = rows
    # Killing turns every under-estimated job into a broken SLA, so
    # reliability cannot improve; what it buys is no propagated delay.
    assert kill["reliability_pct"] <= let_run["reliability_pct"] + 1e-9
    exhibit = format_table(
        rows, title="Ablation 5 — kill-at-estimate vs non-preemptive (bid, Set B)"
    )
    save_exhibit("ablation_kill_at_estimate", exhibit)
    print("\n" + exhibit)


def test_ablation_libra_dollar_beta(benchmark, base_config, save_exhibit):
    config = base_config.for_set("A")

    def ablation():
        rows = []
        for beta in (0.0, 0.1, 0.3, 1.0):
            policy = LibraDollar(pricing=PricingParams(beta=beta))
            objs = run_one(policy, "commodity", config)
            entry = row(f"Libra+$ beta={beta}", objs)
            entry["beta"] = beta
            rows.append(entry)
        return rows

    rows = one_shot(benchmark, ablation)
    # Raising beta prices more aggressively: SLA acceptance cannot rise.
    slas = [r["SLA_pct"] for r in rows]
    assert all(slas[i] >= slas[i + 1] - 1e-9 for i in range(len(slas) - 1))
    exhibit = format_table(
        rows, title="Ablation 4 — Libra+$ dynamic pricing weight (commodity, Set A)"
    )
    save_exhibit("ablation_libra_dollar_beta", exhibit)
    print("\n" + exhibit)
