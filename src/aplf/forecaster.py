"""Sequential probabilistic forecasting from the latest model parameters.

Each step fuses the propagated transition-channel prediction with the
observation channel into one Gaussian, carrying the per-step mean and
standard deviation forward; the result is the exact conditional of the
next load given the anchoring load and the observations so far.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import NormalDist

from .features import neighbour_types
from .model_types import ForecastPoint, GaussianChannelParams, LearnerState, ModelParams

__all__ = [
    "DegenerateVariances",
    "ColdStart",
    "QOutOfRange",
    "InstanceVector",
    "ForecastPath",
    "forecast_step",
    "predict",
    "quantile",
    "standard_normal_quantile",
]

_STD_NORMAL = NormalDist()


class DegenerateVariances(Exception):
    """Both channel variances and the propagated variance are zero."""


class ColdStart(Exception):
    """A visited calendar type was never trained and no trained fallback exists."""


class QOutOfRange(Exception):
    """Quantile level must lie strictly inside (0, 1)."""


@dataclass(frozen=True)
class InstanceVector:
    """Prediction input: anchoring load s_t, one observation slot per step, and
    the absolute step index t of the anchor. Missing observations are None."""

    anchor_load: float | None
    observations: tuple
    t: int


@dataclass(frozen=True)
class ForecastPath:
    """L forecast points plus any cold-start substitutions (wanted, used) applied."""

    points: tuple[ForecastPoint, ...]
    cold_start_substitutions: tuple[tuple[int, int], ...] = ()


def forecast_step(
    prev: ForecastPoint,
    s_params: GaussianChannelParams,
    r_params: GaussianChannelParams,
    u_r: Sequence[float],
) -> ForecastPoint:
    """Advance the forecast one step.

    Propagates the previous Gaussian through the transition channel
    (mean eta_s[0] + eta_s[1]*prev_mean, variance grown by the squared
    slope) and conditions on the observation channel. Equivalent to one
    predict-then-condition pass of exact Gaussian filtering.
    """
    intercept, slope = s_params.eta
    trans_mean = intercept + slope * prev.mean
    slope_std = slope * prev.std
    prop_var = s_params.sigma * s_params.sigma + slope_std * slope_std
    obs_var = r_params.sigma * r_params.sigma
    denom = obs_var + prop_var
    if denom <= 0.0:
        raise DegenerateVariances("both channel variances and the propagated variance are zero")
    obs_mean = sum(u * e for u, e in zip(u_r, r_params.eta))
    mean = (trans_mean * obs_var + obs_mean * prop_var) / denom
    std = math.sqrt(obs_var * prop_var / denom)
    return ForecastPoint(mean=mean, std=std, t=prev.t + 1)


def predict(
    model: ModelParams,
    instance: InstanceVector,
    calendar_fn,
    encoder,
    state: LearnerState | None = None,
) -> ForecastPath:
    """Forecast one point per observation slot of the instance.

    The calendar type is re-resolved per step; a missing observation is
    encoded as the encoder's neutral vector. When a learner state is
    supplied, a never-trained calendar type (gamma = 0 on the transition
    channel) borrows parameters from the nearest trained type; the
    substitution is reported on the returned path.
    """
    if instance.anchor_load is None:
        raise ValueError("prediction requires an anchoring load")
    if not instance.observations:
        raise ValueError("instance has no observation slots")
    points: list[ForecastPoint] = []
    substitutions: list[tuple[int, int]] = []
    prev = ForecastPoint(mean=float(instance.anchor_load), std=0.0, t=instance.t)
    for obs in instance.observations:
        c = calendar_fn(prev.t + 1)
        used = c
        if state is not None and state.s_state(c).gamma == 0.0:
            used = _nearest_trained(state, c, model.n_calendar_types)
            substitutions.append((c, used))
        u_r = encoder.encode(obs) if obs is not None else encoder.missing()
        prev = forecast_step(prev, model.s_channel(used), model.r_channel(used), u_r)
        points.append(prev)
    return ForecastPath(points=tuple(points), cold_start_substitutions=tuple(substitutions))


def _nearest_trained(state: LearnerState, c: int, n: int) -> int:
    """Nearest calendar type, in neighbour_types order, with at least one transition-channel update."""
    for cc in neighbour_types(c, n):
        if state.s_states[cc - 1].gamma > 0.0:
            return cc
    raise ColdStart(f"no trained calendar type available as fallback for {c}")


def standard_normal_quantile(q: float) -> float:
    """Inverse standard normal CDF (rational approximation, |error| well below 1e-9)."""
    if not 0.0 < q < 1.0:
        raise QOutOfRange(f"quantile level must be in (0, 1), got {q}")
    return _STD_NORMAL.inv_cdf(q)


def quantile(point: ForecastPoint, q: float) -> float:
    """q-quantile of the Gaussian forecast; degenerate (std 0) forecasts return the mean."""
    return point.mean + point.std * standard_normal_quantile(q)
