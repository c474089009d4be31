"""Unit tests for the Table VI scenario grid."""

import pytest

from repro.experiments.scenarios import (
    SCENARIOS,
    ExperimentConfig,
    scenario_by_name,
)


def test_twelve_scenarios():
    assert len(SCENARIOS) == 12
    names = [s.name for s in SCENARIOS]
    assert names[:3] == ["job mix", "workload", "inaccuracy"]
    # Three parameters x {bias, ratio, low mean} = nine more.
    for param in ("deadline", "budget", "penalty"):
        for kind in ("bias", "ratio", "low mean"):
            assert f"{param} {kind}" in names


def test_six_values_per_scenario():
    for s in SCENARIOS:
        assert len(s.values) == 6


def test_default_value_belongs_to_each_scenario():
    # Table VI: the default (underlined) value is one of the six varying
    # values, so the default configuration is a point of every scenario.
    base = ExperimentConfig()
    for s in SCENARIOS:
        assert getattr(base, s.field_name) in s.values


def test_configs_vary_only_one_field():
    base = ExperimentConfig()
    scenario = scenario_by_name("workload")
    configs = scenario.configs(base)
    assert len(configs) == 6
    assert [c.arrival_delay_factor for c in configs] == list(scenario.values)
    for c in configs:
        assert c.with_values(arrival_delay_factor=base.arrival_delay_factor) == base


def test_set_a_and_b_only_differ_in_inaccuracy():
    base = ExperimentConfig()
    a = base.for_set("A")
    b = base.for_set("B")
    assert a.inaccuracy_pct == 0.0
    assert b.inaccuracy_pct == 100.0
    assert a.with_values(inaccuracy_pct=100.0) == b
    with pytest.raises(ValueError):
        base.for_set("C")


def test_inaccuracy_scenario_overrides_set_b_default():
    base = ExperimentConfig().for_set("B")
    configs = scenario_by_name("inaccuracy").configs(base)
    assert [c.inaccuracy_pct for c in configs] == [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]


def test_qos_spec_reflects_config():
    cfg = ExperimentConfig(
        pct_high_urgency=60.0,
        deadline_low_mean=2.0, deadline_ratio=8.0, deadline_bias=6.0,
    )
    spec = cfg.qos_spec()
    assert spec.pct_high_urgency == 60.0
    assert spec.deadline.low_mean == 2.0
    assert spec.deadline.high_low_ratio == 8.0
    assert spec.deadline.bias == 6.0


def test_config_key_is_hashable_identity():
    a = ExperimentConfig()
    b = ExperimentConfig()
    c = ExperimentConfig(seed=1)
    assert a.key() == b.key()
    assert a.key() != c.key()
    {a.key(): 1}


def test_scenario_labels():
    labels = scenario_by_name("job mix").labels()
    assert labels[0] == "job mix=0"
    assert labels[-1] == "job mix=100"


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        scenario_by_name("phase of the moon")
