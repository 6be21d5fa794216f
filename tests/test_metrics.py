"""Point and probabilistic metric checks against independent accumulations."""

import math
import subprocess
import sys
import tracemalloc
from array import array
from functools import partial
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import PINBALL_REL_TOL, assert_grid_pinball, pinball_error_scale, src_path_env, whole_table_scores

from aplf.metrics import QUANTILE_LEVELS, QUANTILE_Z, EmptyInput, evaluate_forecasts, mape, rmse


def test_rmse_values():
    assert rmse([1.0], [1.0]) == 0.0
    assert rmse([0.0, 0.0], [1.0, -1.0]) == 1.0
    with pytest.raises(EmptyInput):
        rmse([], [])


def test_rmse_matches_high_precision_oracle():
    rng = np.random.default_rng(4)
    pairs = [(float(rng.normal(loc=5.0)), float(rng.normal(loc=5.0))) for _ in range(100)]
    with mpmath.workdps(50):
        expected = mpmath.sqrt(mpmath.fsum((mpmath.mpf(s) - mpmath.mpf(sh)) ** 2 for s, sh in pairs) / len(pairs))
        assert abs(rmse(*zip(*pairs)) - float(expected)) <= 1e-12 * float(expected)


def test_mape_values_and_exclusions():
    value, excluded = mape([10.0], [9.0])
    assert value == 10.0
    assert excluded == 0
    value, excluded = mape([4.0, 0.0, 2.0], [4.0, 1.0, 1.0])
    assert excluded == 1
    assert math.isclose(value, 100.0 * (0.0 + 0.5) / 2.0, rel_tol=1e-15)
    value, excluded = mape([0.0, 0.0], [1.0, 2.0])
    assert math.isnan(value) and excluded == 2
    with pytest.raises(EmptyInput):
        mape([], [])
    # Relative to |actual|: errors of both signs add up, even where they overflow.
    assert mape([-2.0, 2.0], [-1.0, 1.0]) == (50.0, 0)
    assert mape([5e-324, -5e-324], [1.0, 1.0]) == (math.inf, 0)


def test_a_score_that_overflows_is_inf():
    # Every input is finite; a square, or a sum of finite terms, is not.
    assert rmse([1e200], [0.0]) == math.inf
    assert rmse([1.3e154, 1.3e154], [0.0, 0.0]) == math.inf
    tiny = 2.2250738585072014e-308
    assert mape([tiny, tiny], [1.0, 3.0]) == (math.inf, 0)
    report = evaluate_forecasts([1e200, tiny, tiny], [0.0, 1.0, 3.0], [1.0, 0.0, 0.0])
    assert (report.rmse, report.mape) == (math.inf, math.inf) and math.isfinite(report.mean_pinball)


def test_a_sum_that_overflows_still_counts_every_later_point():
    # The third pinball term, and the second MAPE ratio, overflow their sums;
    # the coverage counts and the zero-load count still take in every point after.
    huge, tiny = 1.5e308, 2.2250738585072014e-308
    rows = [(huge, 0.0, 1.0)] * 3 + [(0.0, 1.0, 0.5), (2.0, 1.0, 0.5), (0.5, 1.0, 0.0)]
    report = evaluate_forecasts(*zip(*rows))
    with np.errstate(over="ignore"):  # the table's own pinball mean overflows too
        curve, ece, _ = whole_table_scores(*zip(*rows))
    assert (report.calibration_curve, report.ece) == (curve, ece)
    assert report.mean_pinball == math.inf and report.n_mape_excluded == 1
    assert mape([tiny, tiny, 0.0, 1.0, 0.0], [1.0, 3.0, 1.0, 1.0, 2.0]) == (math.inf, 2)


def test_mape_matches_high_precision_oracle():
    rng = np.random.default_rng(6)
    pairs = [(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))) for _ in range(100)]
    with mpmath.workdps(50):
        expected = 100 * mpmath.fsum(abs(mpmath.mpf(s) - mpmath.mpf(sh)) / mpmath.mpf(s) for s, sh in pairs) / len(pairs)
        value, _ = mape(*zip(*pairs))
        assert abs(value - float(expected)) <= 1e-12 * float(expected)


def per_sample_pinball(actual, mean, std) -> list[float]:
    """The grid pinball mean of each (actual, mean, std) sample, scored on its own."""
    return [evaluate_forecasts([a], [m], [s]).mean_pinball for a, m, s in zip(actual, mean, std)]


def test_pinball_values():
    # Point forecasts (std 0): every level's quantile is the mean, and the
    # grid's levels average to 0.5.
    per_sample = per_sample_pinball([10.0, 6.5, 5.0], [8.0, 6.5, 8.0], [0.0] * 3)
    for loss, (s, s_hat) in zip(per_sample, [(10.0, 8.0), (6.5, 6.5), (5.0, 8.0)]):
        assert_grid_pinball(loss, s, s_hat, 0.0)
    assert per_sample[0] == 1.0
    assert per_sample[1] == 0.0
    assert math.isclose(per_sample[2], 1.5, rel_tol=1e-12)


def test_pinball_median_is_half_absolute_error():
    rng = np.random.default_rng(9)
    actual = rng.normal(scale=10.0, size=200).tolist()
    mean = rng.normal(scale=10.0, size=200).tolist()
    for s, s_hat, loss in zip(actual, mean, per_sample_pinball(actual, mean, [0.0] * 200)):
        assert_grid_pinball(loss, s, s_hat, 0.0)
        # The grid is symmetric about the median, so a point forecast's
        # mean loss is half its absolute error up to rounding.
        assert math.isclose(loss, abs(s - s_hat) / 2.0, rel_tol=1e-14)


def test_pinball_both_branches_brute_force():
    for s, s_hat in [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]:
        for std in (0.0, 0.1, 0.5, 0.9):
            assert_grid_pinball(per_sample_pinball([s], [s_hat], [std])[0], s, s_hat, std)


def test_quantile_grid_default():
    grid = QUANTILE_LEVELS
    assert len(grid) == 99
    assert grid[0] == 0.01 and grid[-1] == 0.99
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert QUANTILE_Z == tuple(NormalDist().inv_cdf(q) for q in grid)
    assert QUANTILE_Z[49] == 0.0
    assert math.isclose(QUANTILE_Z[97], 2.053749, abs_tol=5e-7)
    assert all(a < b for a, b in zip(QUANTILE_Z, QUANTILE_Z[1:]))


def test_mean_pinball_degenerate_perfect_forecast_is_zero():
    assert evaluate_forecasts([2.5] * 10, [2.5] * 10, [0.0] * 10).mean_pinball == 0.0


def test_mean_pinball_monotone_in_distance_for_fixed_std():
    losses = [evaluate_forecasts([d], [0.0], [1.0]).mean_pinball for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b for a, b in zip(losses, losses[1:]))


def test_calibration_all_actuals_below_every_quantile():
    grid = QUANTILE_LEVELS
    report = evaluate_forecasts([-100.0] * 5, [0.0] * 5, [1.0] * 5)
    curve, ece = report.calibration_curve, report.ece
    assert all(c == 1.0 for _, c in curve)
    expected = math.fsum(1.0 - q for q in grid) / len(grid)
    assert math.isclose(ece, expected, rel_tol=1e-12)


def test_calibration_single_sample_single_level():
    # The actual 0 lies at or below the q-quantile 1 + 2 z_q exactly when
    # q >= Phi(-0.5) = 0.3085...
    report = evaluate_forecasts([0.0], [1.0], [2.0])
    curve, ece = report.calibration_curve, report.ece
    expected = tuple((i / 100.0, 0.0 if i <= 30 else 1.0) for i in range(1, 100))
    assert curve == expected
    assert ece == math.fsum(abs(q - c) for q, c in expected) / 99
    assert math.isclose(ece, (4.65 + 24.15) / 99, rel_tol=1e-15)


def test_calibration_of_the_true_generator_is_tight():
    rng = np.random.default_rng(12)
    actual, means, stds = [], [], []
    for _ in range(100_000):
        mean = float(rng.normal(scale=3.0))
        std = float(rng.uniform(0.5, 2.0))
        actual.append(float(rng.normal(loc=mean, scale=std)))
        means.append(mean)
        stds.append(std)
    assert evaluate_forecasts(actual, means, stds).ece < 0.01


@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 5)), min_size=1, max_size=40))
@example([(2.2250738585072014e-308, 1.0, 0.0), (2.2250738585072014e-308, 3.0, 0.0)])
def test_coverage_is_monotone_in_q(rows):
    curve = evaluate_forecasts(*zip(*rows)).calibration_curve
    coverages = [c for _, c in curve]
    assert all(a <= b for a, b in zip(coverages, coverages[1:]))


def test_rmse_dominates_mean_absolute_error():
    rng = np.random.default_rng(14)
    pairs = [(float(rng.normal()), float(rng.normal())) for _ in range(200)]
    mean_abs = math.fsum(abs(s - sh) for s, sh in pairs) / len(pairs)
    assert rmse(*zip(*pairs)) >= mean_abs


def test_evaluate_forecasts_assembles_report():
    rng = np.random.default_rng(15)
    actual, means = [], []
    for _ in range(500):
        mean = float(rng.uniform(1.0, 3.0))
        actual.append(mean + float(rng.normal(scale=0.1)))
        means.append(mean)
    stds = [0.1] * 500
    report = evaluate_forecasts(actual, means, stds)
    assert report.n_points == 500
    assert report.rmse == rmse(actual, means)
    assert (report.mape, report.n_mape_excluded) == mape(actual, means)
    assert 0.0 <= report.ece <= 1.0
    assert len(report.calibration_curve) == 99
    curve, ece, mean_pinball = whole_table_scores(actual, means, stds)
    assert (report.calibration_curve, report.ece) == (curve, ece)
    scale = math.fsum(map(pinball_error_scale, actual, means, stds)) / 500
    assert abs(report.mean_pinball - mean_pinball) <= PINBALL_REL_TOL * scale
    assert report.n_mape_excluded == 0
    text = "\n".join(report.lines())
    assert "rmse = " in text and "ece = " in text


@st.composite
def scored_samples(draw):
    """A sample's mean; its std: 0, -0.0, subnormal, tiny beside the mean (so that
    quantiles tie), ordinary or NaN; and its actual: anywhere, exactly on one of
    its quantiles mean + std * z_k, on the mean, or NaN."""
    mean = draw(st.floats(-1e3, 1e3) | st.just(math.nan))
    std = draw(st.sampled_from([0.0, -0.0, 5e-324, 1e-310, math.nan])
               | st.floats(0.0, 5.0)
               | st.floats(0.0, 1e-15).map(lambda r: r * abs(mean)))
    actual = draw(st.floats(-1e3, 1e3) | st.just(math.nan) | st.just(mean)
                  | st.integers(0, len(QUANTILE_Z) - 1).map(lambda k: mean + std * QUANTILE_Z[k]))
    return actual, mean, std


@given(st.lists(scored_samples(), min_size=1, max_size=30))
def test_coverage_equals_the_whole_quantile_table_exactly(samples):
    report = evaluate_forecasts(*zip(*samples))
    curve, ece, _ = whole_table_scores(*zip(*samples))
    assert (report.calibration_curve, report.ece) == (curve, ece)


def same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def fsum_or_inf(terms: list) -> float:
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


zero_load_samples = st.tuples(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3) | st.just(math.nan),
                              st.floats(0.0, 5.0) | st.just(math.nan))


@given(st.lists(scored_samples() | zero_load_samples, min_size=1, max_size=30))
def test_each_score_is_one_fsum_over_its_terms_whatever_sequence_holds_the_columns(samples):
    actual, mean, std = (list(column) for column in zip(*samples))
    n = len(samples)
    # Each term built on its own, in a list: a squared error, a ratio to a
    # non-zero load, and a point's grid pinball mean.
    squares = [(a - m) * (a - m) for a, m in zip(actual, mean)]
    ratios = [abs((a - m) / a) for a, m in zip(actual, mean) if a != 0]
    pinball_terms = per_sample_pinball(actual, mean, std)
    expected_rmse = math.sqrt(fsum_or_inf(squares) / n)
    expected_mape = 100.0 * fsum_or_inf(ratios) / len(ratios) if ratios else math.nan
    expected_pinball = fsum_or_inf(pinball_terms) / n
    curve, ece, _ = whole_table_scores(actual, mean, std)
    for kind in (list, tuple, partial(array, "d")):
        a, m, s = kind(actual), kind(mean), kind(std)
        assert same(rmse(a, m), expected_rmse)
        value, excluded = mape(a, m)
        assert same(value, expected_mape) and excluded == n - len(ratios)
        report = evaluate_forecasts(a, m, s)
        assert same(report.rmse, expected_rmse) and same(report.mape, expected_mape)
        assert same(report.mean_pinball, expected_pinball) and report.n_mape_excluded == n - len(ratios)
        assert (report.calibration_curve, report.ece, report.n_points) == (curve, ece, n)


def test_evaluate_forecasts_keeps_no_per_point_object():
    # 20,000 points may raise the peak of traced allocations by at most 64 KiB
    # beyond the input columns, which exist before tracing starts.
    rng = np.random.default_rng(20)
    mean = [float(v) for v in rng.uniform(1.0, 3.0, 20_000)]
    actual = [0.0 if i % 97 == 0 else m + float(rng.normal(scale=0.1)) for i, m in enumerate(mean)]
    std = [float(v) for v in rng.uniform(0.0, 0.2, 20_000)]
    tracemalloc.start()
    try:
        report = evaluate_forecasts(actual, mean, std)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_points == 20_000 and report.n_mape_excluded == 207
    assert peak <= 64 * 1024


def test_negative_or_infinite_std_is_rejected_and_zero_or_nan_keep_the_table_scores():
    for bad in (-1e-300, -1.0, math.inf):
        with pytest.raises(ValueError):
            evaluate_forecasts([1.0, 2.0], [1.0, 2.0], [0.1, bad])
    # A std of 0 or -0.0 scores a point forecast; NaN anywhere covers no level
    # and gives a NaN pinball.
    zero = [(2.0, 1.0, 0.0), (1.0, 1.0, -0.0), (0.5, 1.0, -0.0), (1.0, 1.0, 0.0)]
    nan = [(math.nan, 1.0, 0.1), (1.0, math.nan, 0.1), (1.0, 1.0, math.nan), (math.nan, 1.0, 0.0)]
    assert per_sample_pinball(*zip(*zero)) == [0.5, 0.0, 0.25, 0.0]
    assert all(map(math.isnan, per_sample_pinball(*zip(*nan))))
    for rows in (zero, nan, zero + nan):
        report = evaluate_forecasts(*zip(*rows))
        curve, ece, _ = whole_table_scores(*zip(*rows))
        assert (report.calibration_curve, report.ece) == (curve, ece)
    assert math.isnan(report.mean_pinball)


def test_the_metrics_module_does_not_load_numpy():
    code = "import sys, aplf.metrics; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=src_path_env()).returncode == 0


@pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (0, 1, 0)])
def test_evaluate_forecasts_rejects_columns_of_unequal_length(lengths):
    n_actual, n_mean, n_std = lengths
    with pytest.raises(ValueError):
        evaluate_forecasts([1.0] * n_actual, [1.0] * n_mean, [0.1] * n_std)
