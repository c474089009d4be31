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
digest.  The pins hold on every supported CPython: no float reduction that
reaches a result uses the builtin ``sum()``, whose rounding changed in
3.12.  Each case also runs with ``sum()`` swapped for one that rounds
differently (see :mod:`reversed_sum`) and must give the same digest.  To
re-pin after an intended behaviour change, run
``python tests/test_timeshared_parity.py`` and paste its output.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.economy.models import make_model
from repro.experiments.runner import build_workload
from repro.experiments.scenarios import ExperimentConfig
from repro.market.marketplace import Marketplace, ProviderSpec
from repro.market.stream import market_job_stream
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from reversed_sum import reversed_builtin_sum

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
        '13dd0a04fb04d57e29311c767e66e3be57f12b70b2b3e36a563fb2ab4ef051ec',
    ('Libra', 'bid', 'rack-outages'):
        '9e4afc8c9b5fd975b17d515b8f8aee604d59d5d25b970189155cd5b688e11c55',
    ('Libra', 'bid', 'mtbf-cascade'):
        'd4549ccb389aabeb88067cf9d69d66322e9f5d1ef655debd25aeabfa2e4038cb',
    ('Libra', 'commodity', 'none'):
        '033749f3d3dda0ff17386a2a333c78867decd92c9ec6f0d56fb0305750b3782a',
    ('Libra', 'commodity', 'rack-outages'):
        'ad0bbfd2d1121220e8dfd31e99f40972bc871dcbb285400aa244120859409164',
    ('Libra', 'commodity', 'mtbf-cascade'):
        '5993dd1ad9ee08099c0abe852f79dd41b530dda4619cefd281bd7f9f96da4e50',
    ('Libra+$', 'bid', 'none'):
        '13dd0a04fb04d57e29311c767e66e3be57f12b70b2b3e36a563fb2ab4ef051ec',
    ('Libra+$', 'bid', 'rack-outages'):
        '9e4afc8c9b5fd975b17d515b8f8aee604d59d5d25b970189155cd5b688e11c55',
    ('Libra+$', 'bid', 'mtbf-cascade'):
        'd4549ccb389aabeb88067cf9d69d66322e9f5d1ef655debd25aeabfa2e4038cb',
    ('Libra+$', 'commodity', 'none'):
        '7fd4a6526545eb1cd48af1a911cd0e4097d3bd4f41b772d854ef84cbb79b8c7a',
    ('Libra+$', 'commodity', 'rack-outages'):
        'ae4489c444ad0e996d1d0164756e8abe9c4eb65a4fdd37406f77b979e655b6dc',
    ('Libra+$', 'commodity', 'mtbf-cascade'):
        '34862c3fbb553717a642aafef728e8a5cbc0fbf856e6b5dfe6453d8f265d7f6f',
    ('LibraRiskD', 'bid', 'none'):
        'afb994012bf23546b515bb46cd36a36159b4b904025d41aebc44baaf10a86be3',
    ('LibraRiskD', 'bid', 'rack-outages'):
        '16ce4d2296c81171632a1b533f1d4166b6bed286a9783dbd9b031a6023657925',
    ('LibraRiskD', 'bid', 'mtbf-cascade'):
        'be2eb29a987664c6864b034fe501d71341681a4727622f9ce11578105f252480',
    ('LibraRiskD', 'commodity', 'none'):
        '935dd771cebba53de4b792accc45bb8d330fd158f01892b6ef5cf024ed1111bd',
    ('LibraRiskD', 'commodity', 'rack-outages'):
        'f3b847572bb5347f1c812b8f77d436035aeed53353eaefe09130f40cb42a5db4',
    ('LibraRiskD', 'commodity', 'mtbf-cascade'):
        'c6c05ebdf3878b82a6ffa9b4c0c22228ed1373e66869fefbd377bc35b7e7897d',
}

EXPECTED_MARKET = '540044cc79f4f6f1b31377d0c9e5961a030f9382da653f6294e3caa8f6395de5'

EXPECTED_BURST = {
    ('Libra', 'bid'):
        'bc7a0ad2418ff6eb1af3606fecab79b212de5d62d647d9d4edde5dbf0e7eee83',
    ('Libra', 'commodity'):
        '6bd48ffc77a860ce107631a22cf5f985249129508c8023f595237b34961af566',
    ('Libra+$', 'bid'):
        'bc7a0ad2418ff6eb1af3606fecab79b212de5d62d647d9d4edde5dbf0e7eee83',
    ('Libra+$', 'commodity'):
        'd7ab7da63461ccc3ab20a64a0bbe902cc5785da0025f13f274494390ec3d7dc5',
    ('LibraRiskD', 'bid'):
        '97adaf5578283a958e2025788fc4390622ebe287a56c4cd50c3374e41493d4a6',
    ('LibraRiskD', 'commodity'):
        '40f6534c2a984db203cfe03b735d527dba2737983a927c2f30d20c63801dc2f5',
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


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_timeshared_results_are_pinned(policy, model, regime):
    assert case_digest(policy, model, regime) == EXPECTED[(policy, model, regime)]


def test_timeshared_market_results_are_pinned():
    assert market_digest() == EXPECTED_MARKET


@pytest.mark.parametrize("policy,model", BURST_CASES)
def test_timeshared_burst_results_are_pinned(policy, model):
    assert burst_digest(policy, model) == EXPECTED_BURST[(policy, model)]


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_timeshared_results_are_pinned_under_emulated_sum(policy, model, regime):
    with reversed_builtin_sum():
        digest = case_digest(policy, model, regime)
    assert digest == EXPECTED[(policy, model, regime)]


def test_timeshared_market_results_are_pinned_under_emulated_sum():
    with reversed_builtin_sum():
        digest = market_digest()
    assert digest == EXPECTED_MARKET


@pytest.mark.parametrize("policy,model", BURST_CASES)
def test_timeshared_burst_results_are_pinned_under_emulated_sum(policy, model):
    with reversed_builtin_sum():
        digest = burst_digest(policy, model)
    assert digest == EXPECTED_BURST[(policy, model)]


if __name__ == "__main__":
    print("EXPECTED = {")
    for case in CASES:
        print(f"    {case!r}:\n        {case_digest(*case)!r},")
    print("}")
    print(f"\nEXPECTED_MARKET = {market_digest()!r}")
    print("\nEXPECTED_BURST = {")
    for case in BURST_CASES:
        print(f"    {case!r}:\n        {burst_digest(*case)!r},")
    print("}")
