"""Unit tests for the Lublin-Feitelson workload model."""

import numpy as np
import pytest

from repro.workload.lublin import (
    LublinModel,
    daily_cycle_weight,
    generate_lublin_trace,
    iter_lublin_chunks,
    sample_runtimes,
    sample_sizes,
)


def test_deterministic_for_seed():
    a = generate_lublin_trace(LublinModel(n_jobs=100), rng=5)
    b = generate_lublin_trace(LublinModel(n_jobs=100), rng=5)
    assert [(j.submit_time, j.runtime, j.procs) for j in a] == [
        (j.submit_time, j.runtime, j.procs) for j in b
    ]


def test_serial_fraction_matches_parameter():
    model = LublinModel(n_jobs=4000, prob_serial=0.24)
    rng = np.random.default_rng(1)
    sizes = sample_sizes(rng, model, model.n_jobs)
    serial = np.mean(sizes == 1)
    # All serial draws plus a few parallel draws that round to 1.
    assert serial == pytest.approx(0.24, abs=0.07)


def test_sizes_bounded_and_power2_heavy():
    model = LublinModel(n_jobs=4000, max_procs=64)
    rng = np.random.default_rng(2)
    sizes = sample_sizes(rng, model, model.n_jobs)
    assert sizes.min() >= 1
    assert sizes.max() <= 64
    parallel = sizes[sizes > 1]
    pow2 = np.mean((parallel & (parallel - 1)) == 0)
    assert pow2 > 0.5  # strong power-of-two clustering


def test_runtime_bounds_and_size_coupling():
    model = LublinModel(n_jobs=6000)
    rng = np.random.default_rng(3)
    small = sample_runtimes(rng, model, np.full(model.n_jobs, 1))
    large = sample_runtimes(rng, model, np.full(model.n_jobs, 128))
    assert small.min() >= model.min_runtime
    assert small.max() <= model.max_runtime
    # pa < 0: larger jobs use the long gamma component LESS often, and the
    # published parameters make the "long" component the big-log one.
    assert np.median(small) != pytest.approx(np.median(large), rel=0.01)


def submit_times(model, seed):
    return np.array([j.submit_time for j in generate_lublin_trace(model, rng=seed)])


def test_arrivals_start_at_zero_and_increase():
    submits = submit_times(LublinModel(n_jobs=500), seed=4)
    assert submits[0] == 0.0
    assert np.all(np.diff(submits) > 0)


def test_daily_cycle_peaks_at_peak_hour():
    model = LublinModel()
    hours = np.arange(24.0)
    weights = daily_cycle_weight(hours, model)
    assert hours[int(np.argmax(weights))] == model.cycle_peak_hour
    assert weights.min() >= 1.0 - model.cycle_amplitude - 1e-9


def test_arrival_rate_follows_cycle():
    # Count arrivals by hour-of-day: the peak hours must out-draw the trough.
    model = LublinModel(n_jobs=8000, arrival_scale=300.0, cycle_amplitude=0.8)
    submits = submit_times(model, seed=6)
    hours = (submits / 3600.0) % 24.0
    peak = np.sum((hours > 11) & (hours < 17))
    trough = np.sum((hours > 23) | (hours < 5))
    assert peak > trough


def test_trace_is_valid_workload():
    jobs = generate_lublin_trace(LublinModel(n_jobs=200, max_procs=32), rng=7)
    assert len(jobs) == 200
    assert all(1 <= j.procs <= 32 for j in jobs)
    assert all(j.estimate > 0 for j in jobs)
    over = np.mean([j.trace_estimate > j.runtime for j in jobs])
    assert over == pytest.approx(0.92, abs=0.06)


@pytest.mark.parametrize("n_jobs, chunk_size", [(1, 1), (100, 100), (100, 8192), (1000, 1000)])
def test_batch_trace_is_the_concatenated_chunks(n_jobs, chunk_size):
    model = LublinModel(n_jobs=n_jobs)
    chunks = list(iter_lublin_chunks(model, rng=11, chunk_size=chunk_size))
    streamed = [job for chunk in chunks for job in chunk]
    assert len(chunks) == 1
    assert streamed == generate_lublin_trace(model, rng=11)


def test_invalid_job_count():
    with pytest.raises(ValueError):
        generate_lublin_trace(LublinModel(n_jobs=0), rng=0)


def test_lublin_jobs_run_through_a_policy():
    from repro.economy.models import make_model
    from repro.policies import make_policy
    from repro.service.provider import CommercialComputingService
    from repro.workload.qos import QoSSpec, assign_qos

    jobs = generate_lublin_trace(LublinModel(n_jobs=60, max_procs=32), rng=8)
    assign_qos(jobs, QoSSpec(), rng=8)
    service = CommercialComputingService(
        make_policy("EDF-BF"), make_model("bid"), total_procs=32
    )
    objs = service.run(jobs).objectives()
    assert 0.0 <= objs.sla <= 100.0
