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
from operator import mul

from .features import neighbour_types
from .model_types import ForecastPoint, GaussianChannelParams, LearnerState, ModelParams

__all__ = [
    "DegenerateVariances",
    "ColdStart",
    "InstanceVector",
    "ForecastPath",
    "forecast_step",
    "predict",
]


class DegenerateVariances(Exception):
    """Both channel variances and the propagated variance are zero."""


class ColdStart(Exception):
    """A visited calendar type was never trained and no trained fallback exists."""


@dataclass(slots=True)
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
    obs_mean = sum(map(mul, u_r, r_params.eta))
    mean = (trans_mean * obs_var + obs_mean * prop_var) / denom
    std = math.sqrt(obs_var * prop_var / denom)
    return ForecastPoint(mean, std, prev.t + 1)


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
    observations = instance.observations
    if not observations:
        raise ValueError("instance has no observation slots")
    s_channels, r_channels = model.s_channels, model.r_channels
    n = len(s_channels)
    s_states = state.s_states if state is not None else None
    encode, missing = encoder.encode, encoder.missing()
    points: list[ForecastPoint] = []
    substitutions: list[tuple[int, int]] = []
    prev = ForecastPoint(float(instance.anchor_load), 0.0, instance.t)
    t = instance.t
    for obs in observations:
        t += 1
        c = calendar_fn(t)
        if not 1 <= c <= n:
            raise IndexError(f"calendar type {c} outside 1..{n}")
        used = c
        if s_states is not None and s_states[c - 1].gamma == 0.0:
            used = _nearest_trained(state, c, n)
            substitutions.append((c, used))
        prev = forecast_step(prev, s_channels[used - 1], r_channels[used - 1],
                             missing if obs is None else encode(obs))
        points.append(prev)
    return ForecastPath(points=tuple(points), cold_start_substitutions=tuple(substitutions))


def _nearest_trained(state: LearnerState, c: int, n: int) -> int:
    """Nearest calendar type, in neighbour_types order, with at least one transition-channel update."""
    for cc in neighbour_types(c, n):
        if state.s_states[cc - 1].gamma > 0.0:
            return cc
    raise ColdStart(f"no trained calendar type available as fallback for {c}")
