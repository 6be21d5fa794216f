"""Point and probabilistic forecast evaluation.

Expectations in the metric definitions are realized as empirical means
over the pooled evaluation population (every horizon step of every
forecast day). Scalar accumulations use exactly rounded compensated
summation, so results do not depend on sample order or partitioning.
Each sum is fed its per-point terms as they are computed, so scoring
keeps no per-point object, whatever sequence type holds the columns.
Pinball loss and calibration on the quantile grid take one pass and no
table of quantiles: coverage counts are exact, and the pinball mean is a
closed form equal to the per-level definition up to rounding. A negative
or infinite std is a ValueError; NaN in any column covers no level and
gives a NaN pinball. A score whose sum overflows the float range is inf.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub
from statistics import NormalDist

from .model_types import InputError

__all__ = [
    "EmptyInput",
    "EvalReport",
    "QUANTILE_LEVELS",
    "QUANTILE_Z",
    "evaluate_forecasts",
    "mape",
    "rmse",
]


class EmptyInput(InputError):
    """The metric has no usable samples."""


def _length(actual, *forecast) -> int:
    """The common length of the columns; ValueError unless they have one, EmptyInput if it is 0."""
    n = len(actual)
    if any(len(column) != n for column in forecast):
        raise ValueError(f"columns of unequal length: {[n, *map(len, forecast)]}")
    if not n:
        raise EmptyInput("evaluation needs at least one sample")
    return n


def _fsum(terms) -> float:
    """math.fsum of terms >= 0, inf where the exact sum overflows the float range.
    An iterator of terms is run to its end either way, for what it counts as it goes."""
    terms = iter(terms)
    try:
        return math.fsum(terms)
    except OverflowError:
        deque(terms, maxlen=0)
        return math.inf


def rmse(actual, point) -> float:
    """Root mean squared error of the point forecasts against the actual loads."""
    n = _length(actual, point)
    return math.sqrt(_fsum(d * d for d in map(sub, actual, point)) / n)


def mape(actual, point) -> tuple[float, int]:
    """Mean absolute percentage error and the count of excluded zero-load samples.

    Each error is relative to |actual|. Samples with actual load exactly 0
    are excluded from the mean (division guard) and counted; when every
    actual load is 0 the mean is nan.
    """
    n = _length(actual, point)
    excluded = 0

    def ratios():
        nonlocal excluded
        for s, s_hat in zip(actual, point):
            if s != 0:
                yield abs((s - s_hat) / s)
            else:
                excluded += 1

    total = _fsum(ratios())
    if excluded == n:
        return math.nan, n
    return 100.0 * total / (n - excluded), excluded


# The fixed grid of quantile levels 0.01..0.99 that pinball loss and
# calibration are scored on, and their standard normal quantiles.
QUANTILE_LEVELS = tuple(i / 100.0 for i in range(1, 100))
QUANTILE_Z = tuple(NormalDist().inv_cdf(q) for q in QUANTILE_LEVELS)
_K = len(QUANTILE_LEVELS)

# Grid pinball sum of (a, m, s) covered from level j on: (a - m)(sum L - K + j) + s (sum_{k>=j} z_k - sum L z).
_D_COEF = tuple(math.fsum(QUANTILE_LEVELS) - _K + j for j in range(_K + 1))
_S_COEF = tuple(math.fsum(QUANTILE_Z[j:]) - math.fsum(map(mul, QUANTILE_LEVELS, QUANTILE_Z)) for j in range(_K + 1))


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

    The three columns are equal-length sequences of floats (lists, tuples
    or array('d')), one entry per evaluated step. For each level q,
    coverage C(q) is the fraction of steps whose actual load is at or
    below the q-quantile forecast; the ECE is the mean absolute deviation
    of C(q) from q over the grid.
    ValueError if a std is negative or infinite.
    """
    n = _length(actual, mean, std)
    first_covered = [0] * (_K + 1)

    def pinball_terms():
        # Quantiles do not decrease in q, so the levels covering the actual a run from a first level j,
        # bisected from d/s (0 for a std of 0 or NaN) and settled by exact a <= m + s*z comparisons.
        z, d_coef, s_coef, k_max, inf, covered = QUANTILE_Z, _D_COEF, _S_COEF, _K, math.inf, first_covered
        for a, m, s in zip(actual, mean, std):
            if s < 0.0 or s == inf:
                raise ValueError(f"std must be >= 0 and not infinite, got {s!r}")
            d = a - m
            j = bisect_left(z, d / s) if s > 0.0 else 0
            while j and a <= m + s * z[j - 1]:
                j -= 1
            while j < k_max and not a <= m + s * z[j]:
                j += 1
            covered[j] += 1
            yield (d * d_coef[j] + s * s_coef[j]) / k_max

    mean_pinball = _fsum(pinball_terms()) / n
    mape_value, excluded = mape(actual, mean)
    curve = tuple((q, k / n) for q, k in zip(QUANTILE_LEVELS, accumulate(first_covered)))
    return EvalReport(
        rmse=rmse(actual, mean),
        mape=mape_value,
        mean_pinball=mean_pinball,
        calibration_curve=curve,
        ece=math.fsum(abs(q - c) for q, c in curve) / len(curve),
        n_points=n,
        n_mape_excluded=excluded,
    )
