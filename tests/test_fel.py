"""FEL parity suite: the calendar queue must be indistinguishable from
the binary-heap reference.

The heap FEL is the semantics oracle: ``(time, priority, seq)`` tuple
ordering with lazy deletion is trivially correct there.  Every test
drives both backends through identical operation sequences — randomized
schedules, same-timestamp priority ties, cancel-then-pop, peeks, budget
trips, and a full seeded bid-model run — and asserts bit-identical
behaviour.
"""

import random

import pytest

import repro.sim.engine as engine_mod
from repro.sim.engine import SimBudgetExceeded, Simulator
from repro.sim.events import EventHandle, Priority
from repro.sim.fel import FEL_BACKENDS, CalendarFEL, HeapFEL, make_fel


def _entry(t, priority, seq):
    handle = EventHandle(t, priority, seq, lambda: None, ())
    return (t, priority, seq, handle)


def _drain_order(fel):
    order = []
    while True:
        entry = fel.pop_live()
        if entry is None:
            return order
        order.append(entry[:3])


# -- direct FEL-level parity ---------------------------------------------------


def test_make_fel_accepts_name_class_and_instance():
    assert isinstance(make_fel("heap"), HeapFEL)
    assert isinstance(make_fel("calendar"), CalendarFEL)
    assert isinstance(make_fel(HeapFEL), HeapFEL)
    inst = CalendarFEL()
    assert make_fel(inst) is inst
    with pytest.raises(ValueError):
        make_fel("btree")


@pytest.mark.parametrize("seed", range(8))
def test_randomized_push_pop_parity(seed):
    """Random times (heavy duplicates), priorities, and interleaved pops.

    Pushed times never precede the last popped time — the simulator's
    ``t >= now`` contract — so popped times must be non-decreasing on
    both backends.  (Full-tuple sortedness need not hold: a push at
    ``t == now`` with a higher priority legitimately lands *after* the
    same-time entries already popped.)
    """
    rng = random.Random(seed)
    heap, cal = HeapFEL(), CalendarFEL()
    popped_h, popped_c = [], []
    seq = 0
    now = 0.0
    for _ in range(400):
        if rng.random() < 0.7:
            t = now + rng.choice([0.0, 0.5, 1.0, 1.0, 2.5, rng.uniform(0, 100.0)])
            prio = rng.choice(list(Priority))
            heap.push(_entry(t, prio, seq))
            cal.push(_entry(t, prio, seq))
            seq += 1
        else:
            eh, ec = heap.pop_live(), cal.pop_live()
            assert (eh is None) == (ec is None)
            if eh is not None:
                popped_h.append(eh[:3])
                popped_c.append(ec[:3])
                now = eh[0]
    popped_h.extend(_drain_order(heap))
    popped_c.extend(_drain_order(cal))
    assert popped_h == popped_c
    times = [e[0] for e in popped_h]
    assert times == sorted(times)
    assert len(heap) == len(cal) == 0


def test_same_timestamp_priority_ties_pop_in_priority_then_seq_order():
    heap, cal = HeapFEL(), CalendarFEL()
    entries = [
        _entry(5.0, Priority.MONITOR, 0),
        _entry(5.0, Priority.COMPLETION, 1),
        _entry(5.0, Priority.ARRIVAL, 2),
        _entry(5.0, Priority.COMPLETION, 3),
        _entry(5.0, Priority.INTERNAL, 4),
    ]
    for e in entries:
        heap.push(e)
        cal.push(e)
    expected = [
        (5.0, Priority.COMPLETION, 1),
        (5.0, Priority.COMPLETION, 3),
        (5.0, Priority.INTERNAL, 4),
        (5.0, Priority.ARRIVAL, 2),
        (5.0, Priority.MONITOR, 0),
    ]
    assert _drain_order(heap) == expected
    assert _drain_order(cal) == expected


@pytest.mark.parametrize("backend", list(FEL_BACKENDS))
def test_cancel_then_pop_skips_and_counts_drops(backend):
    fel = make_fel(backend)
    entries = [_entry(float(i), Priority.INTERNAL, i) for i in range(10)]
    for e in entries:
        fel.push(e)
    for e in entries[::2]:
        e[3].cancel()
    assert fel.live_count() == 5
    assert len(fel) == 10  # lazy deletion: cancelled entries still queued
    order = _drain_order(fel)
    assert order == [(float(i), Priority.INTERNAL, i) for i in range(1, 10, 2)]
    assert fel.dropped == 5


@pytest.mark.parametrize("backend", list(FEL_BACKENDS))
def test_peek_live_does_not_consume_and_skips_cancelled(backend):
    fel = make_fel(backend)
    first = _entry(1.0, Priority.INTERNAL, 0)
    second = _entry(2.0, Priority.INTERNAL, 1)
    fel.push(first)
    fel.push(second)
    assert fel.peek_live()[:3] == (1.0, Priority.INTERNAL, 0)
    assert fel.peek_live()[:3] == (1.0, Priority.INTERNAL, 0)  # idempotent
    first[3].cancel()
    assert fel.peek_live()[:3] == (2.0, Priority.INTERNAL, 1)
    assert fel.pop_live()[:3] == (2.0, Priority.INTERNAL, 1)
    assert fel.peek_live() is None
    assert fel.pop_live() is None


@pytest.mark.parametrize("seed", range(4))
def test_peek_then_late_earlier_push_parity(seed):
    """A push that sorts before the peeked-at entry must dethrone it on
    both backends (the one-slot lookahead cache must not go stale)."""
    rng = random.Random(1000 + seed)
    heap, cal = HeapFEL(), CalendarFEL()
    seq = 0
    for _ in range(200):
        op = rng.random()
        if op < 0.5:
            t = rng.uniform(0.0, 50.0)
            e = _entry(t, Priority.INTERNAL, seq)
            seq += 1
            heap.push(e)
            cal.push(e)
        elif op < 0.8:
            ph, pc = heap.peek_live(), cal.peek_live()
            assert (ph is None) == (pc is None)
            if ph is not None:
                assert ph[:3] == pc[:3]
        else:
            eh, ec = heap.pop_live(), cal.pop_live()
            assert (eh is None) == (ec is None)
            if eh is not None:
                assert eh[:3] == ec[:3]
    assert _drain_order(heap) == _drain_order(cal)


# -- simulator-level parity ----------------------------------------------------


def _run_program(fel_name):
    """A self-scheduling, self-cancelling workload on one backend."""
    sim = Simulator(fel=fel_name)
    fired = []
    pending = {}
    rng = random.Random(42)

    def work(tag):
        fired.append((sim.now, tag))
        for _ in range(rng.randrange(3)):
            delay = rng.choice([0.0, 0.25, 1.0, rng.uniform(0, 10.0)])
            prio = rng.choice(list(Priority))
            tag2 = len(fired) * 1000 + len(pending)
            if len(fired) + len(pending) < 400:
                pending[tag2] = sim.schedule(delay, work, tag2, priority=prio)
        if pending and rng.random() < 0.4:
            victim = rng.choice(sorted(pending))
            sim.cancel(pending.pop(victim))

    for i in range(10):
        pending[i] = sim.schedule(float(i) / 3.0, work, i)
    sim.run()
    return fired, sim.events_executed, sim.events_scheduled, sim.now


def test_simulator_program_bit_identical_across_backends():
    ref = _run_program("heap")
    assert _run_program("calendar") == ref


@pytest.mark.parametrize("backend", list(FEL_BACKENDS))
def test_budget_trips_identically(backend):
    def run(with_budget):
        sim = Simulator(fel=backend)
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


@pytest.mark.parametrize("backend", list(FEL_BACKENDS))
def test_run_until_executes_boundary_events(backend):
    sim = Simulator(fel=backend)
    fired = []
    for t in (1.0, 2.0, 2.0, 3.0):
        sim.schedule_at(t, fired.append, t)
    sim.run(until=2.0)
    assert fired == [1.0, 2.0, 2.0]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1.0, 2.0, 2.0, 3.0]


@pytest.mark.parametrize("width", [1.0, 250.0, 1e6])
def test_bucket_width_keeps_heap_order_on_workload_arrivals(width):
    """The bucket width moves work between sorting and the key heap, never
    the order: on a generated workload's arrival times (a median ~245 s
    apart), with completions pushed at and after the clock and some pending
    entries cancelled between pops, widths far below, near and far above
    the gaps pop exactly what the heap pops."""
    from repro.experiments.runner import build_workload
    from repro.experiments.scenarios import ExperimentConfig

    jobs = build_workload(ExperimentConfig(n_jobs=300, seed=7))
    rng = random.Random(7)
    heap, cal = HeapFEL(), CalendarFEL(width)
    pending = {}
    for seq, job in enumerate(jobs):
        pending[seq] = entry = _entry(job.submit_time, Priority.ARRIVAL, seq)
        heap.push(entry)
        cal.push(entry)
    seq = len(jobs)
    popped_h, popped_c = [], []
    cancelled = 0
    while True:
        eh, ec = heap.pop_live(), cal.pop_live()
        assert (eh is None) == (ec is None)
        if eh is None:
            break
        popped_h.append(eh[:3])
        popped_c.append(ec[:3])
        now = eh[0]
        del pending[eh[2]]
        if eh[1] is Priority.ARRIVAL:
            runtime = jobs[eh[2]].runtime
            pending[seq] = entry = _entry(now + rng.choice([0.0, runtime]),
                                          Priority.COMPLETION, seq)
            seq += 1
            heap.push(entry)
            cal.push(entry)
        if pending and rng.random() < 0.2:
            pending.pop(rng.choice(list(pending)))[3].cancel()
            cancelled += 1
    assert popped_h == popped_c
    assert cancelled > 10
    assert len(popped_h) == seq - cancelled
    assert heap.dropped == cal.dropped == cancelled


# -- end-to-end golden run -----------------------------------------------------


@pytest.mark.parametrize("policy", ["FCFS-BF", "Libra"])
def test_seeded_bid_model_run_identical_on_both_backends(policy, monkeypatch):
    """The before/after-engine-swap check: a seeded bid-model simulation
    (space-shared and time-shared cluster paths) must produce the exact
    same objectives whichever FEL every internal simulator uses."""
    from repro.experiments.runner import run_single
    from repro.experiments.scenarios import ExperimentConfig

    config = ExperimentConfig(n_jobs=60, total_procs=32, seed=7)
    results = {}
    for backend in FEL_BACKENDS:
        monkeypatch.setattr(engine_mod, "DEFAULT_FEL", backend)
        results[backend] = run_single(config, policy, "bid")
    assert results["heap"] == results["calendar"]
