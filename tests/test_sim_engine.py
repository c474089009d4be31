"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim import EventHandle, Priority, SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, fired.append, "late")
    sim.schedule(2.0, fired.append, "early")
    sim.schedule(3.0, fired.append, "mid")
    sim.run()
    assert fired == ["early", "mid", "late"]
    assert sim.now == 5.0


def test_same_time_fifo_tie_break():
    sim = Simulator()
    fired = []
    for tag in range(5):
        sim.schedule(1.0, fired.append, tag)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "arrival", priority=Priority.ARRIVAL)
    sim.schedule(1.0, fired.append, "completion", priority=Priority.COMPLETION)
    sim.run()
    assert fired == ["completion", "arrival"]


def test_schedule_into_past_raises():
    sim = Simulator(start=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_schedule_nan_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


@pytest.mark.parametrize("fel", ["heap", "calendar"])
def test_reserved_seq_keeps_insertion_order(fel):
    """An event armed late under an early-reserved number fires where an
    event scheduled at reservation time would have."""
    sim = Simulator(fel=fel)
    fired = []
    seq = sim.reserve_seqs(2)
    sim.schedule_at(1.0, fired.append, "scheduled after reserving")
    sim.schedule_reserved(1.0, seq + 1, fired.append, "second reserved")
    sim.schedule_reserved(1.0, seq, fired.append, "first reserved")
    sim.run()
    assert fired == ["first reserved", "second reserved", "scheduled after reserving"]
    assert sim.events_scheduled == 3


def test_schedule_reserved_validates():
    sim = Simulator(start=5.0)
    seq = sim.reserve_seqs(1)
    with pytest.raises(SimulationError):
        sim.schedule_reserved(1.0, seq, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_reserved(6.0, seq + 1, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.cancel(handle)
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent_and_safe_after_run():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()
    handle.cancel()


def test_cancel_returns_true_only_once():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    assert sim.cancel(handle) is True
    assert sim.cancel(handle) is False
    assert handle.cancel() is False


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    assert handle.fired is True
    assert sim.cancel(handle) is False
    assert handle.cancelled is False  # a fired handle is never marked cancelled


def test_cancel_from_inside_own_callback_is_noop():
    sim = Simulator()
    outcome = []

    def self_cancel():
        # The handle has already been popped and dispatched; cancelling it
        # now must not corrupt the calendar or the cancellation accounting.
        outcome.append(handle.cancel())

    handle = sim.schedule(1.0, self_cancel)
    sim.schedule(2.0, outcome.append, "later")
    sim.run()
    assert outcome == [False, "later"]


def test_cancelled_counter_never_double_counts():
    from repro.perf import capture as perf_capture

    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    h2 = sim.schedule(2.0, lambda: None)
    with perf_capture() as perf:
        h1.cancel()
        h1.cancel()  # second cancel must not count again
        sim.run()
        h2.cancel()  # fired already: not counted
        counters = dict(perf.counters)
    assert counters.get("sim.events_cancelled", 0) == 1


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_executes_events_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "boundary")
    sim.schedule(10.5, fired.append, "beyond")
    sim.run(until=10.0)
    assert fired == ["boundary"]
    assert sim.now == 10.0
    sim.run()
    assert fired == ["boundary", "beyond"]


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_max_events_limits_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_step_returns_false_when_empty():
    sim = Simulator()
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    h = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h.cancel()
    assert sim.peek() == 2.0


def test_pending_counts_live_events():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    h1.cancel()
    assert sim.pending() == 1


def test_event_counters():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_scheduled == 3
    assert sim.events_executed == 3


def test_simulator_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_budget_max_events_raises_catchably():
    from repro.sim import SimBudgetExceeded

    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.set_budget(max_events=4)
    with pytest.raises(SimBudgetExceeded) as info:
        sim.run()
    assert fired == [0, 1, 2, 3]  # the budget-tripping event never executes
    assert info.value.budget == "max_events=4"
    assert isinstance(info.value, SimulationError)  # catchable as the base


def test_budget_max_sim_time_raises_before_overrunning_event():
    from repro.sim import SimBudgetExceeded

    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "in-budget")
    sim.schedule(50.0, fired.append, "over-budget")
    sim.set_budget(max_sim_time=10.0)
    with pytest.raises(SimBudgetExceeded) as info:
        sim.run()
    assert fired == ["in-budget"]
    assert info.value.budget == "max_sim_time=10.0"


def test_budget_validation_and_disarm():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.set_budget(max_events=0)
    with pytest.raises(ValueError):
        sim.set_budget(max_sim_time=-1.0)
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.set_budget(max_events=3)
    sim.set_budget()  # None + None disarms the watchdog
    sim.run()
    assert sim.events_executed == 5


def test_run_single_watchdog_raises_budget_exceeded():
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig
    from repro.sim import SimBudgetExceeded

    config = ExperimentConfig(n_jobs=20, total_procs=16)
    with pytest.raises(SimBudgetExceeded):
        run_single(config, "FCFS-BF", "bid", max_sim_events=10)
    # Unbudgeted, the identical run completes — budgets are execution
    # knobs, never part of the run's identity.
    objectives = run_single(config, "FCFS-BF", "bid")
    assert objectives == run_single(
        config, "FCFS-BF", "bid", max_sim_events=10**9
    )


def test_event_handle_ordering():
    a = EventHandle(1.0, 0, 0, lambda: None)
    b = EventHandle(1.0, 0, 1, lambda: None)
    c = EventHandle(1.0, 1, 0, lambda: None)
    d = EventHandle(0.5, 5, 9, lambda: None)
    assert a < b < c
    assert d < a
