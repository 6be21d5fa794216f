"""Point and probabilistic forecast evaluation.

Expectations in the metric definitions are realized as empirical means
over the pooled evaluation population (every horizon step of every
forecast day). Scalar accumulations use exactly rounded compensated
summation, so results do not depend on sample order or partitioning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "EmptyInput",
    "EvalReport",
    "QUANTILE_LEVELS",
    "QUANTILE_Z",
    "evaluate_forecasts",
    "mape",
    "rmse",
]


class EmptyInput(Exception):
    """The metric has no usable samples."""


def _length(actual, *forecast) -> int:
    """The common length of the columns; ValueError unless they have one, EmptyInput if it is 0."""
    n = len(actual)
    if any(len(column) != n for column in forecast):
        raise ValueError(f"columns of unequal length: {[n, *map(len, forecast)]}")
    if not n:
        raise EmptyInput("evaluation needs at least one sample")
    return n


def rmse(actual, point) -> float:
    """Root mean squared error of the point forecasts against the actual loads."""
    n = _length(actual, point)
    return math.sqrt(math.fsum((s - s_hat) ** 2 for s, s_hat in zip(actual, point)) / n)


def mape(actual, point) -> tuple[float, int]:
    """Mean absolute percentage error and the count of excluded zero-load samples.

    Each error is relative to |actual|. Samples with actual load exactly 0
    are excluded from the mean (division guard) and counted; when every
    actual load is 0 the mean is nan.
    """
    n = _length(actual, point)
    usable = [(s, s_hat) for s, s_hat in zip(actual, point) if s != 0]
    if not usable:
        return math.nan, n
    value = 100.0 * math.fsum(abs((s - s_hat) / s) for s, s_hat in usable) / len(usable)
    return value, n - len(usable)


# The fixed grid of quantile levels 0.01..0.99 that pinball loss and
# calibration are scored on, and their standard normal quantiles.
QUANTILE_LEVELS = tuple(i / 100.0 for i in range(1, 100))
QUANTILE_Z = tuple(NormalDist().inv_cdf(q) for q in QUANTILE_LEVELS)
_LEVELS = np.array(QUANTILE_LEVELS)
_Z = np.array(QUANTILE_Z)

# Rows of the (N, 99) quantile table scored at a time; each block's
# temporaries take about 0.8 MB whatever N is. On 25.5k rows, 1024-row
# blocks score faster than 2048-row ones.
_BLOCK_ROWS = 1024


def _scores(actual, mean, std):
    """Per-sample pinball means over QUANTILE_LEVELS, and per-level coverage counts.

    The Gaussian forecast quantiles are scored block by block; a row's mean
    and an integer count do not depend on the blocking.
    """
    actual, means, stds = (np.asarray(column, dtype=float) for column in (actual, mean, std))
    n = len(actual)
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


def evaluate_forecasts(actual, mean, std) -> EvalReport:
    """Full evaluation of Gaussian forecasts (mean, std) against actual loads on QUANTILE_LEVELS.

    The three columns are equal-length sequences of floats, one entry per
    evaluated step. For each level q, coverage C(q) is the fraction of
    steps whose actual load is at or below the q-quantile forecast; the
    ECE is the mean absolute deviation of C(q) from q over the grid.
    """
    n = _length(actual, mean, std)
    per_sample, counts = _scores(actual, mean, std)
    mape_value, excluded = mape(actual, mean)
    curve = tuple((q, int(k) / n) for q, k in zip(QUANTILE_LEVELS, counts))
    return EvalReport(
        rmse=rmse(actual, mean),
        mape=mape_value,
        mean_pinball=math.fsum(per_sample) / n,
        calibration_curve=curve,
        ece=math.fsum(abs(q - c) for q, c in curve) / len(curve),
        n_points=n,
        n_mape_excluded=excluded,
    )
