"""Unit tests for the discrete-event simulation engine.

Besides the unit cases, the simulator is driven through seeded random
operation sequences and checked, observation by observation, against
:class:`SortedListModel`: an event list that is a Python list kept sorted
on ``(time, priority, seq)``, whose correctness is evident by reading it.
"""

import bisect
import random

import pytest

from repro.perf import capture as perf_capture
from repro.sim import (
    EventHandle,
    Priority,
    SimBudgetExceeded,
    SimulationError,
    Simulator,
)


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


def test_reserved_seq_keeps_insertion_order():
    """An event armed late under an early-reserved number fires where an
    event scheduled at reservation time would have."""
    sim = Simulator()
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


def test_event_list_is_the_heap_alone():
    sim = Simulator(fel="heap")
    fired = []
    sim.schedule(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    with pytest.raises(ValueError):
        Simulator(fel="calendar")


def test_same_time_priority_ties_fire_in_priority_then_seq_order():
    sim = Simulator()
    fired = []
    priorities = [Priority.MONITOR, Priority.COMPLETION, Priority.ARRIVAL,
                  Priority.COMPLETION, Priority.INTERNAL]
    for tag, priority in enumerate(priorities):
        sim.schedule_at(5.0, fired.append, tag, priority=priority)
    sim.run()
    assert fired == [1, 3, 4, 2, 0]


def test_cancelled_entries_are_skipped_and_counted_as_dropped():
    sim = Simulator()
    fired = []
    handles = [sim.schedule_at(float(i), fired.append, i) for i in range(10)]
    for handle in handles[::2]:
        handle.cancel()
    assert sim.pending() == 5
    with perf_capture() as perf:
        sim.run()
        counters = dict(perf.counters)
    assert fired == [1, 3, 5, 7, 9]
    assert counters["sim.cancelled_dropped"] == 5
    assert counters["sim.events_executed"] == 5


def test_peek_does_not_consume_and_skips_cancelled():
    sim = Simulator()
    fired = []
    first = sim.schedule_at(1.0, fired.append, "first")
    sim.schedule_at(2.0, fired.append, "second")
    assert sim.peek() == 1.0
    assert sim.peek() == 1.0  # idempotent
    assert sim.pending() == 2
    first.cancel()
    assert sim.peek() == 2.0
    assert sim.step() is True
    assert fired == ["second"]
    assert sim.peek() is None
    assert sim.step() is False


def test_budget_trip_matches_max_events():
    def run(with_budget):
        sim = Simulator()
        fired = []
        for i in range(20):
            sim.schedule(float(i), fired.append, i)
        if with_budget:
            sim.set_budget(max_events=7)
            with pytest.raises(SimBudgetExceeded) as excinfo:
                sim.run()
            assert excinfo.value.budget == "max_events=7"
        else:
            sim.run(max_events=7)
        return fired, sim.events_executed, sim.now

    assert run(True) == ([0, 1, 2, 3, 4, 5, 6], 7, 6.0)
    assert run(False) == ([0, 1, 2, 3, 4, 5, 6], 7, 6.0)


def test_run_until_fires_every_event_at_the_boundary():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 2.0, 3.0):
        sim.schedule_at(t, fired.append, t)
    sim.run(until=2.0)
    assert fired == [1.0, 2.0, 2.0]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1.0, 2.0, 2.0, 3.0]


# -- the simulator against a sorted-list model ---------------------------------


class _ModelEntry:
    __slots__ = ("key", "state", "fn", "args")

    def __init__(self, key, fn, args):
        self.key = key  # (time, priority, seq)
        self.state = "pending"  # then "fired" or "cancelled"
        self.fn = fn
        self.args = args


class SortedListModel:
    """The simulator's specification on a list kept sorted by key.

    It offers the :class:`Simulator` methods the random programs call.  A
    cancelled entry stays in the list until it reaches the front, where it
    is removed and counted in ``dropped``; the simulator must count the
    same entries in ``sim.cancelled_dropped``.
    """

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = 0
        self.events_executed = 0
        self.events_scheduled = 0
        self.dropped = 0
        self.budget = (None, None)

    def _insert(self, time, priority, seq, fn, args):
        assert time >= self.now
        entry = _ModelEntry((time, priority, seq), fn, args)
        bisect.insort(self.queue, entry, key=lambda e: e.key)
        self.events_scheduled += 1
        return entry

    def schedule(self, delay, fn, *args, priority=Priority.INTERNAL):
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(self, time, fn, *args, priority=Priority.INTERNAL):
        self.seq += 1
        return self._insert(time, priority, self.seq - 1, fn, args)

    def reserve_seqs(self, n):
        self.seq += n
        return self.seq - n

    def schedule_reserved(self, time, seq, fn, *args, priority=Priority.INTERNAL):
        return self._insert(time, priority, seq, fn, args)

    def cancel(self, entry):
        if entry.state != "pending":
            return False
        entry.state = "cancelled"
        return True

    def set_budget(self, max_events=None, max_sim_time=None):
        self.budget = (max_events, max_sim_time)

    def _head(self):
        while self.queue and self.queue[0].state == "cancelled":
            del self.queue[0]
            self.dropped += 1
        return self.queue[0] if self.queue else None

    def peek(self):
        entry = self._head()
        return None if entry is None else entry.key[0]

    def pending(self):
        return sum(entry.state == "pending" for entry in self.queue)

    def _fire_head(self):
        max_events, max_time = self.budget
        entry = self.queue[0]
        if max_events is not None and self.events_executed >= max_events:
            raise SimBudgetExceeded("", budget=f"max_events={max_events}")
        if max_time is not None and entry.key[0] > max_time:
            raise SimBudgetExceeded("", budget=f"max_sim_time={max_time}")
        del self.queue[0]
        self.now = entry.key[0]
        entry.state = "fired"
        self.events_executed += 1
        entry.fn(*entry.args)

    def step(self):
        if self._head() is None:
            return False
        self._fire_head()
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while max_events is None or executed < max_events:
            entry = self._head()
            if entry is None or (until is not None and entry.key[0] > until):
                break
            self._fire_head()
            executed += 1
        if until is not None and self.now < until:
            self.now = until


#: offsets from ``now``: mostly a coarse lattice, so times tie heavily
#: (``0.0`` pushes at ``t == now``, also from inside callbacks).
TIE_OFFSETS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)
PRIORITIES = list(Priority)
#: callbacks stop scheduling children once this many events exist.
MAX_EVENTS = 400
#: operations after which the simulator has flushed its perf counters.
FLUSHING_OPS = {"step", "run_until", "run_max", "run", "budget_events", "budget_time"}


class Program:
    """A seeded random program over a :class:`Simulator` or the model.

    Every fired event and every observation goes into ``trace``; a
    simulator and the model that run the same seed must leave equal
    traces.  ``dropped``, when given, reads the dropped-entry count, which
    is compared after each operation that flushes it.
    """

    def __init__(self, sim, seed, dropped=None):
        self.sim = sim
        self.rng = random.Random(seed)
        self.dropped = dropped
        self.handles = []
        self.trace = []

    def offset(self):
        rng = self.rng
        if rng.random() < 0.2:
            return rng.uniform(0.0, 20.0)
        return rng.choice(TIE_OFFSETS)

    def add(self, schedule, *when):
        tag = len(self.handles)
        priority = self.rng.choice(PRIORITIES)
        self.handles.append(schedule(*when, self.fire, tag, priority=priority))

    def victim(self):
        """Any handle (pending, cancelled already or fired), half the time
        one of the newest, which are mostly still pending."""
        recent = self.handles[-8:] if self.rng.random() < 0.5 else self.handles
        return self.rng.choice(recent)

    def fire(self, tag):
        sim, rng = self.sim, self.rng
        self.trace.append(("fire", tag, sim.now))
        if len(self.handles) < MAX_EVENTS:
            for _ in range(rng.randrange(3)):
                if rng.random() < 0.5:
                    self.add(sim.schedule, self.offset())
                else:
                    self.add(sim.schedule_at, sim.now + self.offset())
        if rng.random() < 0.3:
            self.trace.append(("cancel", sim.cancel(self.victim())))
        if rng.random() < 0.2:
            self.trace.append(("peek", sim.peek(), sim.pending()))

    def op_schedule(self):
        self.add(self.sim.schedule, self.offset())

    def op_schedule_at(self):
        self.add(self.sim.schedule_at, self.sim.now + self.offset())

    def op_reserved(self):
        sim = self.sim
        first = sim.reserve_seqs(2)
        self.op_schedule()
        for seq in (first + 1, first):
            self.add(sim.schedule_reserved, sim.now + self.offset(), seq)

    def op_cancel(self):
        if self.handles:
            return self.sim.cancel(self.victim())
        return None

    def op_peek(self):
        return self.sim.peek()

    def op_step(self):
        return self.sim.step()

    def op_run_until(self):
        self.sim.run(until=self.sim.now + self.offset())

    def op_run_max(self):
        self.sim.run(max_events=self.rng.randrange(5))

    def op_run(self):
        self.sim.run()

    def _budgeted(self):
        try:
            return self.sim.step() if self.rng.random() < 0.3 else self.sim.run()
        finally:
            self.sim.set_budget()

    def op_budget_events(self):
        extra = self.rng.randrange(4)
        self.sim.set_budget(max_events=max(1, self.sim.events_executed + extra))
        return self._budgeted()

    def op_budget_time(self):
        self.sim.set_budget(max_sim_time=self.sim.now + self.rng.uniform(0.1, 5.0))
        return self._budgeted()

    def execute(self, op):
        try:
            result = getattr(self, "op_" + op)()
        except SimBudgetExceeded as exc:
            result = ("budget", exc.budget)
        sim = self.sim
        dropped = None
        if self.dropped is not None and op in FLUSHING_OPS:
            dropped = self.dropped()
        self.trace.append((op, result, sim.now, sim.pending(),
                           sim.events_executed, sim.events_scheduled, dropped))

    def play(self, weights, n_ops):
        ops = list(weights)
        for _ in range(n_ops):
            self.execute(self.rng.choices(ops, list(weights.values()))[0])
        self.execute("run")
        return self.trace


def _model_and_engine_traces(seed, play):
    """``play(program)`` on the model, on the engine with the perf registry
    disabled (no dropped counts read), and on the engine with it enabled
    (``sim.cancelled_dropped`` read)."""
    model = SortedListModel()
    expected = play(Program(model, seed, lambda: model.dropped))
    uncounted = [entry[:-1] + (None,) if entry[0] in FLUSHING_OPS else entry
                 for entry in expected]
    assert play(Program(Simulator(), seed)) == uncounted
    with perf_capture() as perf:
        counted = play(Program(Simulator(), seed,
                               lambda: perf.counters.get("sim.cancelled_dropped", 0)))
    assert counted == expected
    return expected, model


RANDOM_OPS = {
    "schedule": 20, "schedule_at": 10, "reserved": 4, "cancel": 14,
    "peek": 10, "step": 10, "run_until": 8, "run_max": 8, "run": 2,
    "budget_events": 3, "budget_time": 3,
}


@pytest.mark.parametrize("seed", range(8))
def test_random_operations_match_the_sorted_list_model(seed):
    """Fired order, ``now``, ``pending()``, ``events_executed``,
    ``events_scheduled``, cancel results, budget trips and dropped counts
    all equal the model's after every operation."""
    trace, model = _model_and_engine_traces(
        seed, lambda program: program.play(RANDOM_OPS, 300))
    ops = {entry[0] for entry in trace}
    assert {"fire", "cancel", "peek"} <= ops
    assert model.dropped > 0


@pytest.mark.parametrize("seed", range(8))
def test_peek_then_earlier_push_matches_the_model(seed):
    """Pushes that sort before an already peeked head (same time, higher
    priority; or earlier time) must displace it."""
    ops = {"schedule": 5, "schedule_at": 2, "peek": 3, "step": 2, "cancel": 1}
    _model_and_engine_traces(seed, lambda program: program.play(ops, 200))


def test_self_scheduling_program_matches_the_model():
    """One unbounded drain in which every callback schedules, cancels and
    peeks."""
    def play(program):
        for _ in range(10):
            program.execute("schedule")
        program.execute("run")
        return program.trace

    trace, model = _model_and_engine_traces(42, play)
    assert model.events_executed > 20
    assert ("cancel", True) in trace
    assert any(entry[0] == "peek" for entry in trace)
