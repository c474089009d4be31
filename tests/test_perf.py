"""Unit tests for the perf instrumentation layer (repro.perf)."""

import statistics

import pytest

from repro import perf
from repro.perf.registry import PERF, PerfRegistry, StreamingStat
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty global registry."""
    PERF.enabled = False
    PERF.reset()
    interval = PERF.sample_interval
    yield
    PERF.enabled = False
    PERF.sample_interval = interval
    PERF.reset()


# -- primitives ----------------------------------------------------------------


def test_streaming_stat_summary():
    stat = StreamingStat()
    for v in (1.0, 2.0, 3.0, 4.0):
        stat.observe(v)
    d = stat.as_dict()
    assert d["count"] == 4
    assert d["mean"] == pytest.approx(2.5)
    assert d["min"] == 1.0
    assert d["max"] == 4.0
    assert d["std"] == pytest.approx(1.118, abs=1e-3)


def test_streaming_stat_std_of_a_constant_stream_is_zero():
    stat = StreamingStat()
    for _ in range(6):
        stat.observe(0.9)
    assert stat.std == 0.0
    assert stat.mean == pytest.approx(0.9)


@pytest.mark.parametrize("values", [
    [1e6 + 0.1, 1e6 + 0.2, 1e6 + 0.3],
    [1e6 + k / 7 for k in range(50)],
])
def test_streaming_stat_std_does_not_cancel_on_offset_data(values):
    stat = StreamingStat()
    for v in values:
        stat.observe(v)
    assert stat.std == pytest.approx(statistics.pstdev(values), rel=1e-9)


def test_registry_counter_timer_histogram():
    reg = PerfRegistry()
    reg.incr("a")
    reg.incr("a", 4)
    reg.observe("h", 10.0)
    reg.observe("h", 20.0)
    with reg.timeit("t"):
        pass
    snap = reg.snapshot()
    assert snap["counters"]["a"] == 5
    assert snap["histograms"]["h"]["mean"] == pytest.approx(15.0)
    assert snap["timers"]["t"]["count"] == 1
    assert snap["timers"]["t"]["total"] >= 0.0


def test_reset_clears_data_but_not_flag():
    reg = PerfRegistry()
    reg.enabled = True
    reg.incr("x")
    reg.reset()
    assert reg.enabled
    assert reg.counters == {}
    assert reg.snapshot()["counters"] == {}


def test_disabled_by_default_and_capture_restores():
    assert not perf.is_enabled()
    with perf.capture() as reg:
        assert perf.is_enabled()
        assert reg is PERF
    assert not perf.is_enabled()
    perf.enable()
    with perf.capture():
        pass
    assert perf.is_enabled()
    perf.disable()


def test_rate_uses_elapsed_window():
    reg = PerfRegistry()
    reg.incr("n", 100)
    assert reg.rate("n", elapsed=4.0) == pytest.approx(25.0)
    assert reg.rate("missing", elapsed=4.0) == 0.0
    assert reg.rate("n", elapsed=0.0) == 0.0


# -- engine hooks --------------------------------------------------------------


def test_engine_counters_mirror_simulator_attributes():
    with perf.capture() as reg:
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, fired.append, t)
        sim.run()
    assert fired == [1.0, 2.0, 3.0]
    assert reg.counters["sim.events_executed"] == sim.events_executed == 3
    assert reg.counters["sim.events_scheduled"] == sim.events_scheduled == 3
    # Dispatch latency is *sampled* into a ring buffer: the first dispatch
    # of a run is always timed, then one in every reg.sample_interval.
    assert reg.rings["sim.dispatch_latency_s"].count == 1
    assert reg.rings["sim.dispatch_latency_s"].mean >= 0.0
    assert reg.histograms["sim.fel_depth"].count >= 1


def test_engine_samples_every_event_at_interval_one():
    with perf.capture() as reg:
        reg.sample_interval = 1
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
    assert reg.rings["sim.dispatch_latency_s"].count == 3
    assert len(reg.rings["sim.dispatch_latency_s"].values()) == 3
    reg.sample_interval = 64


def test_engine_records_nothing_when_disabled():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert PERF.counters == {}
    assert PERF.histograms == {}
    assert PERF.rings == {}


def test_cancel_churn_counters_consistent_under_heavy_cancellation():
    """pending() and the churn counters must agree at every stage while a
    large fraction of the event list is being cancelled."""
    with perf.capture() as reg:
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
        # Cancel every other event, some of them twice (idempotent).
        for h in handles[::2]:
            sim.cancel(h)
        for h in handles[:20:2]:
            h.cancel()
        assert reg.counters["sim.events_cancelled"] == 100
        assert sim.pending() == 100
        sim.run()
        # Every cancelled event was eventually dropped, every live one ran.
        assert sim.events_executed == 100
        assert reg.counters["sim.cancelled_dropped"] == 100
        assert sim.pending() == 0
        assert sim.events_scheduled == (
            sim.events_executed + int(reg.counters["sim.cancelled_dropped"])
        )


def test_cancel_after_execution_does_not_count_as_churn():
    with perf.capture() as reg:
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.run()
        h.cancel()  # too late: already executed — a no-op, so no churn at all
        assert reg.counters.get("sim.cancelled_dropped", 0) == 0
        assert reg.counters.get("sim.events_cancelled", 0) == 0
        assert sim.pending() == 0


# -- cluster and runner hooks --------------------------------------------------


def test_run_single_records_throughput_counters():
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(n_jobs=20, total_procs=16)
    with perf.capture() as reg:
        run_single(config, "FCFS-BF", "bid")
    assert reg.counters["runner.simulations"] == 1
    assert reg.counters["runner.jobs_simulated"] == 20
    assert reg.counters["cluster.space.jobs_started"] > 0
    assert reg.counters["policy.decisions"] > 0
    assert reg.timers["runner.run_single_s"].count == 1


def test_timeshared_hooks_record_admissions_and_churn():
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(n_jobs=20, total_procs=16)
    with perf.capture() as reg:
        run_single(config, "Libra", "bid")
    assert reg.counters["cluster.time.jobs_admitted"] > 0
    assert reg.counters["cluster.time.reschedules"] > 0
    # Libra's reschedules cancel completions: churn must be visible.
    assert reg.counters.get("sim.events_cancelled", 0) > 0


@pytest.mark.parametrize("policy,model", [
    ("FCFS-BF", "bid"), ("SJF-BF", "commodity"), ("EDF-BF", "bid"),
    ("Libra", "bid"), ("Libra+$", "commodity"), ("LibraRiskD", "bid"),
    ("FirstReward", "bid"),
])
def test_every_decision_is_a_quote_or_a_rejection(policy, model):
    """Each Table V policy counts its budget checks as quotes, so decisions
    split into quotes and rejections; the Libra family once counted none."""
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig

    with perf.capture() as reg:
        run_single(ExperimentConfig(n_jobs=120, seed=5), policy, model)
    counters = reg.counters
    assert counters["policy.quotes"] > 0
    assert counters["policy.decisions"] == (
        counters["policy.quotes"] + counters.get("policy.rejections", 0))
