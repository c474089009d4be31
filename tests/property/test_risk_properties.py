"""Property-based tests (hypothesis) for the risk-analysis core."""

import math
import statistics

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.integrated import equal_weights, integrated_risk
from repro.core.normalize import normalize_percentage, normalize_wait
from repro.core.objectives import Objective
from repro.core.separate import separate_risk
from repro.core.trend import Gradient, fit_trend

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_lists = st.lists(unit, min_size=1, max_size=24)


@given(unit_lists)
def test_separate_performance_bounded_by_extremes(results):
    r = separate_risk(results)
    assert min(results) - 1e-12 <= r.performance <= max(results) + 1e-12


@given(unit_lists)
def test_separate_volatility_bounded_by_half_range(results):
    # Population std of values in [a, b] is at most (b - a) / 2.
    r = separate_risk(results)
    half_range = (max(results) - min(results)) / 2
    assert r.volatility <= half_range + 1e-7


@given(unit_lists)
def test_separate_volatility_zero_iff_constant(results):
    r = separate_risk(results)
    if max(results) == min(results):
        assert r.volatility == 0.0
    elif max(results) - min(results) > 1e-6:
        assert r.volatility > 0.0


@given(unit_lists)
def test_separate_matches_numpy_population_std(results):
    r = separate_risk(results)
    assert math.isclose(r.performance, float(np.mean(results)), abs_tol=1e-12)
    assert math.isclose(r.volatility, float(np.std(results)), abs_tol=1e-12)


@given(unit, st.integers(min_value=1, max_value=12))
def test_separate_volatility_of_a_constant_list_is_exactly_zero(value, n):
    # The mean of n copies need not round back to the value itself, so
    # deviations from the mean would leave a residue; Eq. 6 must not.
    assert separate_risk([value] * n).volatility == 0.0


@given(unit_lists)
def test_separate_volatility_matches_statistics_pstdev(results):
    r = separate_risk(results)
    assert math.isclose(r.volatility, statistics.pstdev(results), rel_tol=0.0, abs_tol=1e-12)


@given(unit_lists)
def test_separate_order_invariance(results):
    a = separate_risk(results)
    b = separate_risk(list(reversed(results)))
    assert math.isclose(a.performance, b.performance, abs_tol=1e-12)
    assert math.isclose(a.volatility, b.volatility, abs_tol=1e-12)


objective_subsets = st.lists(
    st.sampled_from(list(Objective)), min_size=1, max_size=4, unique=True
)


@given(
    objective_subsets,
    st.lists(st.tuples(unit, st.floats(0.0, 0.5)), min_size=4, max_size=4),
)
def test_integrated_is_convex_combination(objectives, stats):
    separate = {
        obj: __import__("repro.core.separate", fromlist=["SeparateRisk"]).SeparateRisk(
            *stats[i]
        )
        for i, obj in enumerate(objectives)
    }
    result = integrated_risk(separate)
    perfs = [separate[o].performance for o in objectives]
    vols = [separate[o].volatility for o in objectives]
    assert min(perfs) - 1e-9 <= result.performance <= max(perfs) + 1e-9
    assert min(vols) - 1e-9 <= result.volatility <= max(vols) + 1e-9


@given(objective_subsets)
def test_equal_weights_sum_to_one(objectives):
    weights = equal_weights(objectives)
    assert math.isclose(sum(weights.values()), 1.0, abs_tol=1e-12)


waits = st.lists(st.floats(0.0, 1e7, allow_nan=False), min_size=1, max_size=16)


@given(waits)
def test_wait_normalization_in_unit_interval(values):
    for method in ("relative-max", "minmax"):
        out = normalize_wait(values, method=method)
        assert np.all(out >= -1e-12)
        assert np.all(out <= 1.0 + 1e-12)


@given(waits)
def test_wait_normalization_reverses_order(values):
    out = normalize_wait(values)
    order_raw = np.argsort(values, kind="stable")
    # Lower wait must map to greater-or-equal normalized value.
    for i in range(len(values)):
        for j in range(len(values)):
            if values[i] < values[j]:
                assert out[i] >= out[j] - 1e-12


@given(waits)
def test_wait_normalization_scale_invariant(values):
    # relative-max normalization is invariant to rescaling all waits.
    out1 = normalize_wait(values)
    out2 = normalize_wait([v * 3.7 for v in values])
    assert np.allclose(out1, out2, atol=1e-9)


@given(st.lists(st.floats(-50.0, 150.0, allow_nan=False), min_size=1, max_size=16))
def test_percentage_normalization_bounds_and_monotone(values):
    out = normalize_percentage(values)
    assert np.all((out >= 0.0) & (out <= 1.0))
    for i in range(len(values)):
        for j in range(len(values)):
            if values[i] <= values[j]:
                assert out[i] <= out[j] + 1e-12


points = st.lists(
    st.tuples(st.floats(0.0, 1.0, allow_nan=False), unit), min_size=1, max_size=12
)


@given(points)
def test_trend_gradient_is_total_function(pts):
    t = fit_trend(pts)
    assert t.gradient in Gradient
    if t.slope is not None:
        assert t.gradient in (Gradient.DECREASING, Gradient.INCREASING, Gradient.ZERO)


@given(points)
@settings(max_examples=50)
def test_trend_invariant_under_duplication(pts):
    t1 = fit_trend(pts)
    t2 = fit_trend(pts + pts)  # duplicates collapse
    assert t1.gradient == t2.gradient
    if t1.slope is not None:
        assert math.isclose(t1.slope, t2.slope, rel_tol=1e-9, abs_tol=1e-12)
