"""Point and probabilistic forecast evaluation.

Expectations in the metric definitions are realized as empirical means
over the pooled evaluation population (every horizon step of every
forecast day). Scalar accumulations use exactly rounded compensated
summation, so results do not depend on sample order or partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forecaster import standard_normal_quantile

__all__ = [
    "EmptyInput",
    "EvalReport",
    "calibration_and_ece",
    "evaluate_forecasts",
    "mape",
    "mean_pinball",
    "pinball",
    "quantile_grid",
    "rmse",
]


class EmptyInput(Exception):
    """The metric has no usable samples."""


def rmse(pairs) -> float:
    """Root mean squared error over (actual, forecast) pairs."""
    if not pairs:
        raise EmptyInput("rmse needs at least one pair")
    return math.sqrt(math.fsum((s - s_hat) ** 2 for s, s_hat in pairs) / len(pairs))


def mape(pairs) -> tuple[float, int]:
    """Mean absolute percentage error and the count of excluded zero-load pairs.

    Pairs with actual load exactly 0 are excluded from the mean (division
    guard) and counted; an input with no usable pair raises EmptyInput.
    """
    usable = [(s, s_hat) for s, s_hat in pairs if s != 0]
    if not usable:
        raise EmptyInput("mape needs at least one pair with non-zero actual")
    value = 100.0 * math.fsum(abs(s - s_hat) / s for s, s_hat in usable) / len(usable)
    return value, len(pairs) - len(usable)


def pinball(s: float, s_hat_q: float, q: float) -> float:
    """Pinball loss of the q-quantile forecast s_hat_q against the actual s."""
    if s >= s_hat_q:
        return q * (s - s_hat_q)
    return (1.0 - q) * (s_hat_q - s)


def quantile_grid(step: int = 1) -> tuple[float, ...]:
    """Percentile levels 0.01..0.99 at the given whole-percent step."""
    return tuple(i / 100.0 for i in range(step, 100, step))


def _forecast_arrays(samples):
    actual = np.array([s for s, _ in samples], dtype=float)
    means = np.array([f.mean for _, f in samples], dtype=float)
    stds = np.array([f.std for _, f in samples], dtype=float)
    return actual, means, stds


def mean_pinball(samples, q_grid=None) -> float:
    """Pinball loss averaged over all samples and all grid quantiles.

    samples are (actual, ForecastPoint) pairs; forecast quantiles are read
    from the Gaussian forecast.
    """
    if not samples:
        raise EmptyInput("mean_pinball needs at least one sample")
    grid = quantile_grid() if q_grid is None else tuple(q_grid)
    z = np.array([standard_normal_quantile(q) for q in grid])
    qs = np.array(grid)
    actual, means, stds = _forecast_arrays(samples)
    forecast_q = means[:, None] + stds[:, None] * z[None, :]
    diff = actual[:, None] - forecast_q
    loss = np.where(diff >= 0.0, qs[None, :] * diff, (qs[None, :] - 1.0) * diff)
    per_sample = loss.mean(axis=1)
    return math.fsum(per_sample) / len(per_sample)


def calibration_and_ece(samples, q_grid=None):
    """Empirical calibration curve and expected calibration error.

    For each grid level q, coverage C(q) is the fraction of samples whose
    actual load is at or below the q-quantile forecast; the ECE is the
    mean absolute deviation of C(q) from q over the grid.
    """
    if not samples:
        raise EmptyInput("calibration needs at least one sample")
    grid = quantile_grid() if q_grid is None else tuple(q_grid)
    if not grid:
        raise EmptyInput("calibration needs a non-empty quantile grid")
    z = np.array([standard_normal_quantile(q) for q in grid])
    actual, means, stds = _forecast_arrays(samples)
    forecast_q = means[:, None] + stds[:, None] * z[None, :]
    counts = (actual[:, None] <= forecast_q).sum(axis=0)
    n = len(samples)
    curve = tuple((q, int(k) / n) for q, k in zip(grid, counts))
    ece = math.fsum(abs(q - c) for q, c in curve) / len(curve)
    return curve, ece


@dataclass(frozen=True)
class EvalReport:
    """Aggregated accuracy of a rolling evaluation."""

    rmse: float
    mape: float
    mean_pinball: float
    calibration_curve: tuple[tuple[float, float], ...]
    ece: float
    n_points: int
    n_mape_excluded: int = 0

    def lines(self) -> list[str]:
        return [
            f"n_points = {self.n_points}",
            f"rmse = {self.rmse!r}",
            f"mape_percent = {self.mape!r}",
            f"mean_pinball = {self.mean_pinball!r}",
            f"ece = {self.ece!r}",
            f"n_mape_excluded = {self.n_mape_excluded}",
        ]


def evaluate_forecasts(samples, q_grid=None) -> EvalReport:
    """Full evaluation of (actual, ForecastPoint) samples against one grid."""
    if not samples:
        raise EmptyInput("evaluation needs at least one sample")
    point_pairs = [(s, f.mean) for s, f in samples]
    mape_value, excluded = mape(point_pairs)
    curve, ece = calibration_and_ece(samples, q_grid)
    return EvalReport(
        rmse=rmse(point_pairs),
        mape=mape_value,
        mean_pinball=mean_pinball(samples, q_grid),
        calibration_curve=curve,
        ece=ece,
        n_points=len(samples),
        n_mape_excluded=excluded,
    )
