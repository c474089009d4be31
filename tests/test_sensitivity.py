"""Unit tests for tornado sensitivity analysis."""

import pytest

from repro.core.objectives import OBJECTIVES, Objective
from repro.experiments.runstore import RunStore
from repro.experiments.scenarios import ExperimentConfig, scenario_by_name
from repro.experiments.sensitivity import TornadoBar, format_tornado, tornado_analysis

SMALL = ExperimentConfig(n_jobs=30, total_procs=32)
SCEN = [scenario_by_name("workload"), scenario_by_name("job mix")]


@pytest.fixture(scope="module")
def tornado():
    return tornado_analysis("FCFS-BF", "bid", SMALL, SCEN, RunStore())


def test_all_objectives_analysed(tornado):
    assert set(tornado) == set(OBJECTIVES)
    for bars in tornado.values():
        assert {b.scenario for b in bars} == {"workload", "job mix"}


def test_bars_sorted_by_swing(tornado):
    for bars in tornado.values():
        swings = [b.swing for b in bars]
        assert swings == sorted(swings, reverse=True)


def test_bounds_consistent(tornado):
    for bars in tornado.values():
        for b in bars:
            assert b.low <= b.high
            assert b.swing >= 0.0


def test_default_within_range_for_contained_default(tornado):
    # The default config is one of each scenario's six values, so the
    # default measurement must lie within [low, high].
    for bars in tornado.values():
        for b in bars:
            assert b.low - 1e-9 <= b.at_default <= b.high + 1e-9


def test_wait_responds_to_both_knobs(tornado):
    # For a queue-based policy, both arrival intensity and urgency mix must
    # visibly move the wait objective (which knob dominates depends on
    # scale, so only positivity is structural).
    for b in tornado[Objective.WAIT]:
        assert b.swing > 0.0


def test_format_tornado_ascii():
    bars = [
        TornadoBar("workload", Objective.SLA, 40.0, 90.0, 75.0),
        TornadoBar("job mix", Objective.SLA, 60.0, 80.0, 75.0),
    ]
    art = format_tornado(bars, width=20, title="SLA")
    lines = art.splitlines()
    assert lines[0] == "SLA"
    assert lines[1].startswith("workload")
    assert "#" * 20 in lines[1]           # widest bar fills the width
    assert lines[2].count("#") < 20
    assert format_tornado([]) == "(no bars)"
