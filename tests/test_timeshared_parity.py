"""Pinned results of the time-shared cluster (the Libra family).

Each case reduces a seeded run to one SHA-256 digest over its objectives
and every SLA's status, start, finish and utility, written as exact
``float.hex`` strings.  Libra, Libra+$ and LibraRiskD are pinned under
both economic models in three fault regimes — none, scripted rack
outages, and stochastic node failures with rack outages and cascades —
plus one marketplace whose time-shared providers share a simulator, and
a burst workload whose arrivals are snapped to the half hour, so that up
to nine jobs are placed and admitted at one instant.

A change to the cluster's rate or completion arithmetic that moves any
float by one ulp, or reorders two same-instant completions, changes a
digest.  Each table has a twin for the compensated ``sum()`` of CPython
3.12 and later (see :mod:`sum_emulation`); the native semantics are
checked against their table and the other ones under the emulation.  To
re-pin after an intended behaviour change, run
``python tests/test_timeshared_parity.py`` and
``python tests/test_timeshared_parity.py --compensated`` and paste their
output.
"""

from __future__ import annotations

import hashlib
import math
import sys

import pytest

from repro.economy.models import make_model
from repro.experiments.runner import build_workload
from repro.experiments.scenarios import ExperimentConfig
from repro.market.marketplace import Marketplace, ProviderSpec
from repro.market.stream import market_job_stream
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from sum_emulation import EMULATED_COMPENSATED, NATIVE_COMPENSATED, builtin_sum

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

EXPECTED_BURST = {
    ('Libra', 'bid'):
        'fa6c67a27fa07858b368dd8ff1c1c3b2f24ae412339cb3b685fbca6bf41de203',
    ('Libra', 'commodity'):
        '8ed03989d03f3b87977fc216b18657330fe865cc4b169a5008d3f14619410337',
    ('Libra+$', 'bid'):
        'fa6c67a27fa07858b368dd8ff1c1c3b2f24ae412339cb3b685fbca6bf41de203',
    ('Libra+$', 'commodity'):
        '5ade9665c72a8fd043bb6f1f04f73abd66cecc3e0b3144e7d0427309d9b05926',
    ('LibraRiskD', 'bid'):
        '80d6c33f484b20bea635971160bd4ba8d8d47b2d14d1dac3c58546216dfef00e',
    ('LibraRiskD', 'commodity'):
        '38c75a78b7e4fa6e18b9202969225df183a289d53f959521f595d491517352dd',
}

EXPECTED_COMPENSATED = {
    ('Libra', 'bid', 'none'):
        '2c0976d4e2ce5d8e36a9fab1359f5edca7708aae34a1b32ad379529f049023d4',
    ('Libra', 'bid', 'rack-outages'):
        '6c811f9b9e9b33fbe8805385e874f50651ab41851657ae69e65d819019aa7a83',
    ('Libra', 'bid', 'mtbf-cascade'):
        '33aecaab69774d44e9e935be8534bdddbb7a589aca2b431284f2e18358b93ee7',
    ('Libra', 'commodity', 'none'):
        'fda41a12a79732df3bdb271a48595218a7c96cd0195435d16bd4561a4d5b6aa2',
    ('Libra', 'commodity', 'rack-outages'):
        'b1a6eb8d176da481416e9508b2eeb5ba3ab1bf71239fe61e00dc54f95c560df5',
    ('Libra', 'commodity', 'mtbf-cascade'):
        '201c1261abd3e3c60ba12d020ee961d906a322b538b41ea1a5a637df8e0e3011',
    ('Libra+$', 'bid', 'none'):
        '2c0976d4e2ce5d8e36a9fab1359f5edca7708aae34a1b32ad379529f049023d4',
    ('Libra+$', 'bid', 'rack-outages'):
        '6c811f9b9e9b33fbe8805385e874f50651ab41851657ae69e65d819019aa7a83',
    ('Libra+$', 'bid', 'mtbf-cascade'):
        '33aecaab69774d44e9e935be8534bdddbb7a589aca2b431284f2e18358b93ee7',
    ('Libra+$', 'commodity', 'none'):
        'e117ca30ceb2e509c16dd2b964f745b6984d1ae7dbefd7d342c0dbb0352a38bc',
    ('Libra+$', 'commodity', 'rack-outages'):
        '4c52da93224d0ec01adb85e238ccda5328d7f980468d74b3730d9004eac7dd02',
    ('Libra+$', 'commodity', 'mtbf-cascade'):
        'a93062f3c2365c2ebf49ef48ac327f5326da5a68e4eb19dfb463ce089f37ee8c',
    ('LibraRiskD', 'bid', 'none'):
        'a203e5c19da67651adff87343396cbd9228e79d40d913ad51854725435ceaa29',
    ('LibraRiskD', 'bid', 'rack-outages'):
        '4f9b121e43edaaa564f0841ea3b82b0dd0320713e00dec94a066903cda502c9a',
    ('LibraRiskD', 'bid', 'mtbf-cascade'):
        '265a8608daead0111411f1a3f4cb16942715e3b5e3992e484720d5e0b78375c3',
    ('LibraRiskD', 'commodity', 'none'):
        '06aaf4818b53b5f0e6a83415ea582dbd78994fe5cecb009ab145018cafd0f503',
    ('LibraRiskD', 'commodity', 'rack-outages'):
        '01c345a090865ede03f88f5f058c510433822bad0fe1b85e0843d652aad498dd',
    ('LibraRiskD', 'commodity', 'mtbf-cascade'):
        '99fb24c5da9dc872fb31f99a169a517cf1d1384484647944cdcbc0ab34fce6fc',
}

EXPECTED_MARKET_COMPENSATED = '5d5c2e9a06a1b285c2bae418ce282be41acc33758379cf72179367c27d319905'

EXPECTED_BURST_COMPENSATED = {
    ('Libra', 'bid'):
        'aa1668e4ccea07757e272ffde5ea1dee2c266756d71cf5ebdd312f6320237b92',
    ('Libra', 'commodity'):
        '3f211e33ac4da335f1a9f9cc999de9827399383625d4cef51ab526c950b4f976',
    ('Libra+$', 'bid'):
        'aa1668e4ccea07757e272ffde5ea1dee2c266756d71cf5ebdd312f6320237b92',
    ('Libra+$', 'commodity'):
        '9baaf4fdfc38fb38ddf2b5a804b9203b342d7de61b531548e43cd2eaeed4c926',
    ('LibraRiskD', 'bid'):
        'ae45357e634f567bf0002f1d2f5365d5e9381dccb82f86862084a27193203cbd',
    ('LibraRiskD', 'commodity'):
        '82de741774d9bf4a170c2bfd8538ad033a8d859d3c67b934ea15fca489bff069',
}

#: arrivals of the burst workload are snapped down to this grid.
BURST_SECONDS = 1_800.0


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


def _result_digest(result) -> str:
    objectives = result.objectives()
    head = " ".join(_hex(v) for v in (objectives.wait, objectives.sla,
                                      objectives.reliability,
                                      objectives.profitability))
    return _digest([head, *_record_lines(result.records)])


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
    return _result_digest(service.run(build_workload(config)))


def burst_digest(policy: str, model: str) -> str:
    config = ExperimentConfig(n_jobs=120, total_procs=64, seed=11,
                              inaccuracy_pct=100.0)
    jobs = build_workload(config)
    for job in jobs:
        job.submit_time = math.floor(job.submit_time / BURST_SECONDS) * BURST_SECONDS
    service = CommercialComputingService(
        make_policy(policy), make_model(model), total_procs=config.total_procs,
    )
    return _result_digest(service.run(jobs))


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
BURST_CASES = [(p, m) for p in POLICIES for m in MODELS]


def tables(compensated: bool) -> tuple[dict, str, dict]:
    """The case, market and burst pins of one ``sum()`` semantics."""
    if compensated:
        return EXPECTED_COMPENSATED, EXPECTED_MARKET_COMPENSATED, EXPECTED_BURST_COMPENSATED
    return EXPECTED, EXPECTED_MARKET, EXPECTED_BURST


NATIVE_CASES, NATIVE_MARKET, NATIVE_BURST = tables(NATIVE_COMPENSATED)
EMULATED_CASES, EMULATED_MARKET, EMULATED_BURST = tables(EMULATED_COMPENSATED)


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_timeshared_results_are_pinned(policy, model, regime):
    assert case_digest(policy, model, regime) == NATIVE_CASES[(policy, model, regime)]


def test_timeshared_market_results_are_pinned():
    assert market_digest() == NATIVE_MARKET


@pytest.mark.parametrize("policy,model", BURST_CASES)
def test_timeshared_burst_results_are_pinned(policy, model):
    assert burst_digest(policy, model) == NATIVE_BURST[(policy, model)]


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_timeshared_results_are_pinned_under_emulated_sum(policy, model, regime):
    with builtin_sum(EMULATED_COMPENSATED):
        digest = case_digest(policy, model, regime)
    assert digest == EMULATED_CASES[(policy, model, regime)]


def test_timeshared_market_results_are_pinned_under_emulated_sum():
    with builtin_sum(EMULATED_COMPENSATED):
        digest = market_digest()
    assert digest == EMULATED_MARKET


@pytest.mark.parametrize("policy,model", BURST_CASES)
def test_timeshared_burst_results_are_pinned_under_emulated_sum(policy, model):
    with builtin_sum(EMULATED_COMPENSATED):
        digest = burst_digest(policy, model)
    assert digest == EMULATED_BURST[(policy, model)]


if __name__ == "__main__":
    compensated = "--compensated" in sys.argv[1:]
    suffix = "_COMPENSATED" if compensated else ""
    with builtin_sum(compensated):
        print(f"EXPECTED{suffix} = {{")
        for case in CASES:
            print(f"    {case!r}:\n        {case_digest(*case)!r},")
        print("}")
        print(f"\nEXPECTED_MARKET{suffix} = {market_digest()!r}")
        print(f"\nEXPECTED_BURST{suffix} = {{")
        for case in BURST_CASES:
            print(f"    {case!r}:\n        {burst_digest(*case)!r},")
        print("}")
