"""Pinned results of the queue-based space-shared policies.

Each case reduces a seeded run to one SHA-256 digest over its objectives
and every SLA's status, start, finish and utility, written as exact
``float.hex`` strings, plus the reason of each rejection.  FCFS-BF, SJF-BF,
EDF-BF, plain FCFS, Cons-BF and FirstReward are pinned under both economic
models, failure-free and with correlated faults (node failures with rack
outages, cascades and checkpoint recovery), on trace runtime estimates, so
jobs under- and over-run their requests.  Three variants add a time-of-day
tariff, kill-at-estimate and the admission-control ablation.

A change to the dispatcher that starts, rejects or fails a different job,
or any job at a different instant, changes a digest.  The pins hold on
every supported CPython: no float reduction that reaches a result uses the
builtin ``sum()``, whose rounding changed in 3.12.  Each case also runs
with ``sum()`` swapped for one that rounds differently (see
:mod:`reversed_sum`) and must give the same digest.  To re-pin after an
intended behaviour change, run ``python tests/test_backfill_parity.py``
and paste its output.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.economy.models import make_model
from repro.economy.pricing import TimeOfDayPricing
from repro.experiments.runner import build_workload
from repro.experiments.scenarios import ExperimentConfig
from repro.policies import make_policy
from repro.service.provider import CommercialComputingService
from reversed_sum import reversed_builtin_sum

POLICIES = ("FCFS-BF", "SJF-BF", "EDF-BF", "FCFS", "Cons-BF", "FirstReward")
MODELS = ("bid", "commodity")

#: fault regimes, as virtual ``fault_*`` config fields.
REGIMES = {
    "none": (),
    "correlated": (
        ("fault_mtbf", 345_600.0),
        ("fault_mttr", 1_800.0),
        ("fault_recovery", "checkpoint"),
        ("fault_domain_size", 8),
        ("fault_domain_mtbf", 864_000.0),
        ("fault_cascade_prob", 0.25),
    ),
}

#: policy options of the variant cases, by name.
VARIANTS = {
    "tariff": lambda: {"tariff": TimeOfDayPricing(peak_multiplier=2.0)},
    "kill-at-estimate": lambda: {"kill_at_estimate": True},
    "no-admission-control": lambda: {"admission_control": False},
}

EXPECTED = {
    ('FCFS-BF', 'bid', 'none'):
        '8cb8ce3857656b910729a81879c57e240f6236564b5c23e847d8c181b36d3df1',
    ('FCFS-BF', 'bid', 'correlated'):
        'f0ac41081ae7d398950de53aaf60bc53ba4b92806887563111b779e5df0ed7c3',
    ('FCFS-BF', 'commodity', 'none'):
        '301dc1aac4123fe8f298276f724fc8a31b536e901d8126c248e014af1248d116',
    ('FCFS-BF', 'commodity', 'correlated'):
        '03f3d2deb7f24673ae2fdf0fe9578f807b27b88e8239233af20121052df76841',
    ('SJF-BF', 'bid', 'none'):
        '4c7ea0753f6332fcc897a1e715b5974541efe1cdadaa106e3d678662546ffddb',
    ('SJF-BF', 'bid', 'correlated'):
        '5ef3d7689b3668da691d5c6ef860fa3fe9977284dcf869ce50ba731896519d06',
    ('SJF-BF', 'commodity', 'none'):
        '67a4e33a762b5aab7acdb0e789199fbfcba4418d9d4ea18b07edd22e40cfe556',
    ('SJF-BF', 'commodity', 'correlated'):
        '3e2ffbbd3737b7c557c1b058df6a0fb7fda8a7bc90d759b8e08a8d9c818511f6',
    ('EDF-BF', 'bid', 'none'):
        '2b33af6652200ff35d1d7a20ef6210e0fcfafabbf8d98c7b6072d9ff8d067ded',
    ('EDF-BF', 'bid', 'correlated'):
        '5f8ed4219fcd84963f8ed2edf7767f6a28ad3d38ed49a2c80e74ac8f091aaacc',
    ('EDF-BF', 'commodity', 'none'):
        '2098636fe94c75c43d3d2d21a9b8cd8663830834f07cf20009c3cf85f4577f90',
    ('EDF-BF', 'commodity', 'correlated'):
        '38e14d1338fe008ae7738766fefdb84ff8a8c23cae0e39d06419e9ee46a4321a',
    ('FCFS', 'bid', 'none'):
        '12a9a708c0d39e3d404dc9ead89bdf6d9f545d79e6c81bd06373fa3d5488b9f6',
    ('FCFS', 'bid', 'correlated'):
        'a35005ae925079f1100844ba92f79e1b1af681fa0fc6e408845724736ff74536',
    ('FCFS', 'commodity', 'none'):
        'f7f108e59d03c51ec3f4085f3e14e7cfac2b25858bb4b10b2643e3deec382957',
    ('FCFS', 'commodity', 'correlated'):
        '3eced62fd429d4578ad65cc0b4399df716492bc8efa89feeff1cfae4a6e95139',
    ('Cons-BF', 'bid', 'none'):
        '1831cb83f35f6f66ea60a0b31fbc5bc779b54d454516f2b19d9f071e1c8427cb',
    ('Cons-BF', 'bid', 'correlated'):
        '204b12ae2876d293a928d9458a45ddf9e5f58079ac4007199e8ad4a06302c92c',
    ('Cons-BF', 'commodity', 'none'):
        '9f28d165825783784ba0e129b842f0dc49ded1f78152e77aae2ddb659353dcb8',
    ('Cons-BF', 'commodity', 'correlated'):
        '75fe8a12131d935c92efca8ad3fd54d029c8e6aaf012080af980bfb2149a69c6',
    ('FirstReward', 'bid', 'none'):
        '8c9dcac8671eec2dd73cd4806d3dee60dea12ba370dcee6fecf1ca819e186a2c',
    ('FirstReward', 'bid', 'correlated'):
        'b5d533c32da9a37a0af37232795a6ea7d4c86c73ecce537261f9b7acd34057aa',
    ('FirstReward', 'commodity', 'none'):
        '9170f29314015d8909a66edfd6c7cd151ccd0c262002f6b7efd2c6c5ed3d3217',
    ('FirstReward', 'commodity', 'correlated'):
        'fb02f9ffef8b2c62401404d01322d7a9226dca79b1c2f67dbad67bba2cd11f65',
}

EXPECTED_VARIANTS = {
    ('SJF-BF', 'commodity', 'tariff'):
        'c9d8f3ba64db839cff47198928de5fb447514f0c37e5bf6196341516fd1f9666',
    ('EDF-BF', 'bid', 'kill-at-estimate'):
        'cbfdac52b467eb7cc7ab89ed9fc2857ecd12ddc858bb16c5d08c080037abd411',
    ('FCFS-BF', 'commodity', 'no-admission-control'):
        '871e4628c0a4cce52927d4d68f91f52fd9157e812a2f7fa5a8e94403c7e1932a',
}

def _hex(value) -> str:
    return "-" if value is None else float(value).hex()


def run_digest(policy: str, model: str, regime: str = "none", **options) -> str:
    config = ExperimentConfig(n_jobs=200, total_procs=64, seed=11,
                              inaccuracy_pct=100.0)
    if REGIMES[regime]:
        config = config.with_values(**dict(REGIMES[regime]))
    scheduler = make_policy(policy, **options)
    service = CommercialComputingService(
        scheduler, make_model(model),
        total_procs=config.total_procs,
        fault_config=config.faults if config.faults.enabled else None,
        fault_seed=config.seed,
    )
    result = service.run(build_workload(config))
    objectives = result.objectives()
    h = hashlib.sha256()
    h.update(" ".join(_hex(v) for v in (objectives.wait, objectives.sla,
                                        objectives.reliability,
                                        objectives.profitability)).encode())
    for rec in sorted(result.records, key=lambda r: r.job.job_id):
        h.update(f"\n{rec.job.job_id} {rec.status.name} {rec.failed} "
                 f"{rec.killed} {_hex(rec.start_time)} {_hex(rec.finish_time)} "
                 f"{_hex(rec.utility)} {rec.reject_reason}".encode())
    return h.hexdigest()


#: (policy, model, variant) of the variant cases.
VARIANT_CASES = [
    ("SJF-BF", "commodity", "tariff"),
    ("EDF-BF", "bid", "kill-at-estimate"),
    ("FCFS-BF", "commodity", "no-admission-control"),
]

CASES = [(p, m, r) for p in POLICIES for m in MODELS
         for r in ("none", "correlated")]


def variant_digest(policy: str, model: str, variant: str) -> str:
    return run_digest(policy, model, **VARIANTS[variant]())


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_backfill_results_are_pinned(policy, model, regime):
    assert run_digest(policy, model, regime) == EXPECTED[(policy, model, regime)]


@pytest.mark.parametrize("policy,model,variant", VARIANT_CASES)
def test_backfill_variants_are_pinned(policy, model, variant):
    assert variant_digest(policy, model, variant) == EXPECTED_VARIANTS[(policy, model, variant)]


@pytest.mark.parametrize("policy,model,regime", CASES)
def test_backfill_results_are_pinned_under_emulated_sum(policy, model, regime):
    with reversed_builtin_sum():
        digest = run_digest(policy, model, regime)
    assert digest == EXPECTED[(policy, model, regime)]


@pytest.mark.parametrize("policy,model,variant", VARIANT_CASES)
def test_backfill_variants_are_pinned_under_emulated_sum(policy, model, variant):
    with reversed_builtin_sum():
        digest = variant_digest(policy, model, variant)
    assert digest == EXPECTED_VARIANTS[(policy, model, variant)]


if __name__ == "__main__":
    print("EXPECTED = {")
    for case in CASES:
        print(f"    {case!r}:\n        {run_digest(*case)!r},")
    print("}")
    print("\nEXPECTED_VARIANTS = {")
    for case in VARIANT_CASES:
        print(f"    {case!r}:\n        {variant_digest(*case)!r},")
    print("}")
