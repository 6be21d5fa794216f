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
    "QUANTILE_LEVELS",
    "QUANTILE_Z",
    "calibration_and_ece",
    "evaluate_forecasts",
    "mape",
    "mean_pinball",
    "pinball",
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


# The fixed grid of quantile levels 0.01..0.99 that pinball loss and
# calibration are scored on, and their standard normal quantiles.
QUANTILE_LEVELS = tuple(i / 100.0 for i in range(1, 100))
QUANTILE_Z = tuple(standard_normal_quantile(q) for q in QUANTILE_LEVELS)
_LEVELS = np.array(QUANTILE_LEVELS)
_Z = np.array(QUANTILE_Z)

# Rows of the (N, 99) quantile table scored at a time; each block's
# temporaries take about 1.6 MB whatever N is.
_BLOCK_ROWS = 2048


def _scores(samples):
    """Per-sample pinball means over QUANTILE_LEVELS, and per-level coverage counts.

    samples are (actual, ForecastPoint) pairs. The Gaussian forecast
    quantiles are scored block by block; a row's mean and an integer count
    do not depend on the blocking.
    """
    n = len(samples)
    if not n:
        raise EmptyInput("evaluation needs at least one sample")
    actual = np.fromiter((s for s, _ in samples), float, n)
    means = np.fromiter((f.mean for _, f in samples), float, n)
    stds = np.fromiter((f.std for _, f in samples), float, n)
    per_sample = np.empty(n)
    counts = np.zeros(len(QUANTILE_LEVELS), dtype=np.int64)
    for lo in range(0, n, _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        a = actual[block, None]
        table = means[block, None] + stds[block, None] * _Z
        diff = a - table
        per_sample[block] = (np.where(diff >= 0.0, _LEVELS, _LEVELS - 1.0) * diff).mean(axis=1)
        counts += (a <= table).sum(axis=0)
    return per_sample, counts


def _calibration(counts, n: int):
    curve = tuple((q, int(k) / n) for q, k in zip(QUANTILE_LEVELS, counts))
    ece = math.fsum(abs(q - c) for q, c in curve) / len(curve)
    return curve, ece


def mean_pinball(samples) -> float:
    """Pinball loss averaged over all samples and all QUANTILE_LEVELS.

    samples are (actual, ForecastPoint) pairs; forecast quantiles are read
    from the Gaussian forecast.
    """
    per_sample, _ = _scores(samples)
    return math.fsum(per_sample) / len(per_sample)


def calibration_and_ece(samples):
    """Empirical calibration curve and expected calibration error.

    For each level q of QUANTILE_LEVELS, coverage C(q) is the fraction of
    samples whose actual load is at or below the q-quantile forecast; the
    ECE is the mean absolute deviation of C(q) from q over the grid.
    """
    _, counts = _scores(samples)
    return _calibration(counts, len(samples))


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


def evaluate_forecasts(samples) -> EvalReport:
    """Full evaluation of (actual, ForecastPoint) samples on QUANTILE_LEVELS."""
    per_sample, counts = _scores(samples)
    point_pairs = [(s, f.mean) for s, f in samples]
    mape_value, excluded = mape(point_pairs)
    curve, ece = _calibration(counts, len(samples))
    return EvalReport(
        rmse=rmse(point_pairs),
        mape=mape_value,
        mean_pinball=math.fsum(per_sample) / len(per_sample),
        calibration_curve=curve,
        ece=ece,
        n_points=len(samples),
        n_mape_excluded=excluded,
    )
