"""Pinned results of the time-shared cluster (the Libra family).

Each case reduces a seeded run to one SHA-256 digest over its objectives
and every SLA's status, start, finish and utility, written as exact
``float.hex`` strings.  Libra, Libra+$ and LibraRiskD are pinned under
both economic models in three fault regimes — none, scripted rack
outages, and stochastic node failures with rack outages and cascades —
plus one marketplace whose time-shared providers share a simulator.

A change to the cluster's rate or completion arithmetic that moves any
float by one ulp, or reorders two same-instant completions, changes a
digest.  To re-pin after an intended behaviour change, run
``python tests/test_timeshared_parity.py`` and paste its output.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.economy.models import make_model
from repro.experiments.runner import build_workload
from repro.experiments.scenarios import ExperimentConfig
from repro.market.marketplace import Marketplace, ProviderSpec
from repro.market.stream import market_job_stream
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService

POLICIES = ("Libra", "Libra+$", "LibraRiskD")
MODELS = ("bid", "commodity")

#: fault regimes, as virtual ``fault_*`` config fields.
REGIMES = {
    "none": (),
    "rack-outages": (
        ("fault_model", "scripted"),
        ("fault_recovery", "checkpoint"),
        ("fault_domain_size", 8),
        ("fault_domain_schedule", (
            (7_200.0, "rack1", 7_200.0),
            (28_800.0, "rack3", 7_200.0),
            (57_600.0, "rack5", 7_200.0),
        )),
    ),
    "mtbf-cascade": (
        ("fault_mtbf", 345_600.0),
        ("fault_mttr", 1_800.0),
        ("fault_recovery", "checkpoint"),
        ("fault_domain_size", 8),
        ("fault_domain_mtbf", 864_000.0),
        ("fault_cascade_prob", 0.25),
    ),
}

EXPECTED = {
    ('Libra', 'bid', 'none'):
        '59e5ecf0188d001024e00e90b2478ab5e3a3ad130e47a2b897d2012a78cfd1da',
    ('Libra', 'bid', 'rack-outages'):
        '7bffa144a37d92c03f2dcabeacd9b47a44c5a68e29f34849ad917190b99b81c7',
    ('Libra', 'bid', 'mtbf-cascade'):
        '398254ec091dff41396131e6757765e52f1275711fbf1f0cad2d6ca4bd6e034a',
    ('Libra', 'commodity', 'none'):
        '3c1797e078cb009216344bdc2e9289e54a79787acec88a227511e50b938c0373',
    ('Libra', 'commodity', 'rack-outages'):
        'bd5dcc74e4872f39353853f3156aa4b12f103ae0c9793bedb74ec11f03134cb4',
    ('Libra', 'commodity', 'mtbf-cascade'):
        '47bc2d4c8b19be23da17e1d0f4b0b2eee933b008f5e6ac3abda0fc5d1bd48fea',
    ('Libra+$', 'bid', 'none'):
        '59e5ecf0188d001024e00e90b2478ab5e3a3ad130e47a2b897d2012a78cfd1da',
    ('Libra+$', 'bid', 'rack-outages'):
        '7bffa144a37d92c03f2dcabeacd9b47a44c5a68e29f34849ad917190b99b81c7',
    ('Libra+$', 'bid', 'mtbf-cascade'):
        '398254ec091dff41396131e6757765e52f1275711fbf1f0cad2d6ca4bd6e034a',
    ('Libra+$', 'commodity', 'none'):
        '2171b8842d2a92a92b81f7c1b7263ccd666f6af9529ff3ad769d2377e017513e',
    ('Libra+$', 'commodity', 'rack-outages'):
        '925fbf90ad181822eb692cf2c147e1720a7c4c005e3533f297290b4cd70d714f',
    ('Libra+$', 'commodity', 'mtbf-cascade'):
        'fc31a79b09f71c931c1adc42b945f200d6532be5fbf8e717934a2992522fd672',
    ('LibraRiskD', 'bid', 'none'):
        'c2ddbcb9e1a82369ff9f0ad606361feea2f204f09675c58023f497fc82555ee9',
    ('LibraRiskD', 'bid', 'rack-outages'):
        '6723851c1d8878d209688aa323bbf4b04ba0facddaa3938b9dd03ec55d1205ea',
    ('LibraRiskD', 'bid', 'mtbf-cascade'):
        'e46ee3bcf29acc8fd664b2ec3253cc3f33f0db324731fd39303c5aed268224c0',
    ('LibraRiskD', 'commodity', 'none'):
        'df50fed44276318758c1b5ff56d092f85d486d1811146f5d1d888d350abb7121',
    ('LibraRiskD', 'commodity', 'rack-outages'):
        '5d758d6d91274ff74a9de9335758146d3b3bc4effbfeb1df29ade04c3e117864',
    ('LibraRiskD', 'commodity', 'mtbf-cascade'):
        '03cb18bb6aa2ed7ec0bb0f07a8a72426bea1d0a6bf8d7f642ae85a602c9b1fb8',
}

EXPECTED_MARKET = 'f97b715ea299b34366591c56b8162c5b8fb78ced9ed43cf7a745159dee90c698'


def _hex(value) -> str:
    return "-" if value is None else float(value).hex()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _record_lines(records):
    for rec in sorted(records, key=lambda r: r.job.job_id):
        yield (f"{rec.job.job_id} {rec.status.name} {_hex(rec.start_time)} "
               f"{_hex(rec.finish_time)} {_hex(rec.utility)}")


def case_digest(policy: str, model: str, regime: str) -> str:
    config = ExperimentConfig(n_jobs=80, total_procs=64, seed=11)
    if REGIMES[regime]:
        config = config.with_values(**dict(REGIMES[regime]))
    service = CommercialComputingService(
        make_policy(policy), make_model(model),
        total_procs=config.total_procs,
        fault_config=config.faults if config.faults.enabled else None,
        fault_seed=config.seed,
    )
    result = service.run(build_workload(config))
    objectives = result.objectives()
    head = " ".join(_hex(v) for v in (objectives.wait, objectives.sla,
                                      objectives.reliability,
                                      objectives.profitability))
    return _digest([head, *_record_lines(result.records)])


def market_digest() -> str:
    market = Marketplace(
        [ProviderSpec("libra", "Libra", total_procs=32),
         ProviderSpec("libra$", "Libra+$", model="commodity", total_procs=32),
         ProviderSpec("riskd", "LibraRiskD", total_procs=32)],
        n_users=12, seed=5,
    )
    market.run(market_job_stream(240, seed=5))
    lines = []
    for name in market.names:
        stats = market.stats[name]
        lines.append(f"{name} {stats.submitted} {stats.accepted} "
                     f"{stats.fulfilled} {stats.violated} {stats.rejected}")
        lines.extend(_record_lines(market.providers[name].collect().records))
    return _digest(lines)


CASES = [(p, m, r) for p in POLICIES for m in MODELS for r in REGIMES]


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_timeshared_results_are_pinned(policy, model, regime):
    assert case_digest(policy, model, regime) == EXPECTED[(policy, model, regime)]


def test_timeshared_market_results_are_pinned():
    assert market_digest() == EXPECTED_MARKET


if __name__ == "__main__":
    print("EXPECTED = {")
    for case in CASES:
        print(f"    {case!r}:\n        {case_digest(*case)!r},")
    print("}")
    print(f"\nEXPECTED_MARKET = {market_digest()!r}")
