"""The regression gate's verdicts (``repro.perf.compare``) on synthetic runs.

No perfbench or market subprocess runs here: each side's runs are built
as result lines shaped like perfbench's last stdout line.
"""

import json

import pytest

from repro.perf.compare import Run, change, compare, main, run_problem

END_TO_END = [
    {"name": "round_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    {"name": "ops_per_s", "better": "higher", "bound": 0.10},
]


def run(exit=0, correct=True, failed=0, **metrics) -> Run:
    return Run(exit, {"correct": correct, "attempted": 10, "failed": failed,
                      "metrics": {k: {"value": v} for k, v in metrics.items()}})


def side(*runs, workload="space_shared") -> dict:
    return {workload: list(runs)}


def verdict(base, head):
    return compare(base, head, END_TO_END)[1]


def test_equal_sides_pass_and_report_every_metric():
    runs = side(run(round_ms=100.0, peak_rss_mb=40.0), run(round_ms=110.0, peak_rss_mb=41.0))
    lines, failures = compare(runs, runs, END_TO_END)
    assert failures == []
    assert [line.split()[1] for line in lines] == ["round_ms", "peak_rss_mb"]
    assert all(line.endswith("ok") for line in lines)


@pytest.mark.parametrize("head_ms,worse", [(124.0, False), (126.0, True), (60.0, False)])
def test_lower_better_metric_against_its_bound(head_ms, worse):
    failures = verdict(side(run(round_ms=100.0)), side(run(round_ms=head_ms)))
    assert bool(failures) == worse
    if worse:
        assert failures == ["space_shared round_ms: +26.0% paired median"]


@pytest.mark.parametrize("head_ops,worse", [(91.0, False), (89.0, True), (150.0, False)])
def test_higher_better_metric_against_its_bound(head_ops, worse):
    failures = verdict(side(run(ops_per_s=100.0)), side(run(ops_per_s=head_ops)))
    assert bool(failures) == worse


def test_medians_decide_not_single_runs():
    base = side(run(round_ms=100.0), run(round_ms=100.0), run(round_ms=100.0))
    head = side(run(round_ms=100.0), run(round_ms=500.0), run(round_ms=101.0))
    assert verdict(base, head) == []


def test_pairing_cancels_drift_between_pairs():
    # The machine slows between the two runs of pair 2: head's median reads
    # 67 % above base's, but within every pair head and base agree.
    base = side(run(round_ms=60.0), run(round_ms=60.0), run(round_ms=100.0))
    head = side(run(round_ms=60.0), run(round_ms=100.0), run(round_ms=100.0))
    assert verdict(base, head) == []
    # Every pair 40 % slower is worse, whatever the drift.
    slow = side(run(round_ms=84.0), run(round_ms=84.0), run(round_ms=140.0))
    assert verdict(base, slow) == ["space_shared round_ms: +40.0% paired median"]


def test_unpaired_runs_fail():
    base = side(run(round_ms=1.0), run(round_ms=1.0))
    assert verdict(base, side(run(round_ms=1.0))) == [
        "space_shared: 2 base runs, 1 head runs"]


def test_zero_baseline_is_worse_when_head_is_larger():
    assert change(0.0, 0.4) == float("inf")
    assert change(0.0, 0.0) == 0.0
    failures = verdict(side(run(round_ms=0.0)), side(run(round_ms=40.0)))
    assert failures == ["space_shared round_ms: +inf% paired median"]
    assert verdict(side(run(round_ms=0.0)), side(run(round_ms=0.0))) == []


@pytest.mark.parametrize("bad,problem", [
    (run(correct=False, round_ms=1.0), "correct: false"),
    (run(failed=2, round_ms=1.0), "failed: 2"),
    (run(exit=1, round_ms=1.0), "exit status 1"),
    (Run(2, None), "exit status 2"),
    (Run(0, None), "no result line"),
])
@pytest.mark.parametrize("where", ["base", "head"])
def test_an_unsound_run_fails_on_either_side(bad, problem, where):
    assert run_problem(bad) == problem
    good = side(run(round_ms=1.0), run(round_ms=1.0))
    broken = side(run(round_ms=1.0), bad)
    base, head = (broken, good) if where == "base" else (good, broken)
    assert verdict(base, head) == [f"space_shared: {where} run 2: {problem}"]


@pytest.mark.parametrize("where", ["base", "head"])
def test_a_workload_missing_on_one_side_fails(where):
    both = {**side(run(round_ms=1.0)), **side(run(round_ms=1.0), workload="faults")}
    one = side(run(round_ms=1.0))
    base, head = (one, both) if where == "base" else (both, one)
    assert verdict(base, head) == [f"faults: {where} missing"]


def test_a_metric_missing_on_one_side_fails():
    failures = verdict(side(run(round_ms=1.0, peak_rss_mb=40.0)), side(run(round_ms=1.0)))
    assert failures == ["space_shared peak_rss_mb: missing on head"]


def test_a_metric_neither_side_reports_is_skipped():
    # The market reports only its wall time, as round_ms.
    lines, failures = compare(side(run(round_ms=800.0), workload="market"),
                              side(run(round_ms=820.0), workload="market"), END_TO_END)
    assert failures == []
    assert len(lines) == 1 and lines[0].startswith("market")


def test_cli_takes_one_base_checkout_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": []}))
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "no-such-checkout")])
    assert exc.value.code == 2
    assert "no such base checkout" in capsys.readouterr().err
