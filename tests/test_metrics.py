"""Point and probabilistic metric checks against independent accumulations."""

import math
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import grid_pinball, whole_table_scores

from aplf import metrics
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


def test_mape_matches_high_precision_oracle():
    rng = np.random.default_rng(6)
    pairs = [(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))) for _ in range(100)]
    with mpmath.workdps(50):
        expected = 100 * mpmath.fsum(abs(mpmath.mpf(s) - mpmath.mpf(sh)) / mpmath.mpf(s) for s, sh in pairs) / len(pairs)
        value, _ = mape(*zip(*pairs))
        assert abs(value - float(expected)) <= 1e-12 * float(expected)


def per_sample_pinball(actual, mean, std) -> list[float]:
    """The per-sample pinball means that the scorer computes."""
    return metrics._scores(actual, mean, std)[0].tolist()


def test_pinball_values():
    # Point forecasts (std 0): every level's quantile is the mean, and the
    # grid's levels average to 0.5.
    per_sample = per_sample_pinball([10.0, 6.5, 5.0], [8.0, 6.5, 8.0], [0.0] * 3)
    assert per_sample == [grid_pinball(10.0, 8.0, 0.0), grid_pinball(6.5, 6.5, 0.0), grid_pinball(5.0, 8.0, 0.0)]
    assert per_sample[0] == 1.0
    assert per_sample[1] == 0.0
    assert math.isclose(per_sample[2], 1.5, rel_tol=1e-12)


def test_pinball_median_is_half_absolute_error():
    rng = np.random.default_rng(9)
    actual = rng.normal(scale=10.0, size=200).tolist()
    mean = rng.normal(scale=10.0, size=200).tolist()
    for s, s_hat, loss in zip(actual, mean, per_sample_pinball(actual, mean, [0.0] * 200)):
        assert loss == grid_pinball(s, s_hat, 0.0)
        # The grid is symmetric about the median, so a point forecast's
        # mean loss is half its absolute error up to rounding.
        assert math.isclose(loss, abs(s - s_hat) / 2.0, rel_tol=1e-14)


def test_pinball_both_branches_brute_force():
    for s, s_hat in [(1.0, 2.0), (2.0, 1.0), (3.0, 3.0)]:
        for std in (0.0, 0.1, 0.5, 0.9):
            assert per_sample_pinball([s], [s_hat], [std]) == [grid_pinball(s, s_hat, std)]


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
    assert (report.calibration_curve, report.ece, report.mean_pinball) == whole_table_scores(actual, means, stds)
    assert report.n_mape_excluded == 0
    text = "\n".join(report.lines())
    assert "rmse = " in text and "ece = " in text


@pytest.mark.parametrize("n", [1, metrics._BLOCK_ROWS - 1, metrics._BLOCK_ROWS, metrics._BLOCK_ROWS + 1,
                               2 * metrics._BLOCK_ROWS + 7])
def test_block_wise_scores_equal_the_whole_table(n):
    rng = np.random.default_rng(n)
    means = rng.uniform(1.0, 3.0, n)
    stds = np.where(rng.uniform(size=n) < 0.1, 0.0, rng.uniform(0.0, 0.2, n))  # some degenerate forecasts
    actual = means + rng.normal(scale=0.15, size=n)
    actual[::5] = means[::5]  # ties with the median quantile, and with every quantile where std = 0
    report = evaluate_forecasts(actual.tolist(), means.tolist(), stds.tolist())
    assert (report.calibration_curve, report.ece, report.mean_pinball) == whole_table_scores(actual, means, stds)


@pytest.mark.parametrize("lengths", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (0, 1, 0)])
def test_evaluate_forecasts_rejects_columns_of_unequal_length(lengths):
    n_actual, n_mean, n_std = lengths
    with pytest.raises(ValueError):
        evaluate_forecasts([1.0] * n_actual, [1.0] * n_mean, [0.1] * n_std)
