"""Sequential probabilistic forecasting from the latest model parameters.

Each step fuses the propagated transition-channel prediction with the
observation channel into one Gaussian, carrying the per-step mean and
standard deviation forward; the result is the exact conditional of the
next load given the anchoring load and the observations so far.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .features import NO_SHIFT, neighbour_types
from .model_types import CALENDAR_TYPES, GaussianChannelParams, LearnerState, ModelParams, NumericError, _Record

__all__ = [
    "DegenerateVariances",
    "ColdStart",
    "InstanceVector",
    "ForecastPath",
    "forecast_step",
    "predict",
]


class DegenerateVariances(NumericError):
    """Both channel variances and the propagated variance are zero."""


class ColdStart(NumericError):
    """A visited calendar type was never trained and no trained fallback exists."""


class InstanceVector(_Record):
    """Prediction input: anchoring load s_t, one encoded observation-channel
    regressor per step (None where the observation is missing), the
    calendar type of each step, and the absolute step index t of the anchor."""

    __slots__ = _fields = ("anchor_load", "observations", "types", "t")

    def __init__(self, anchor_load: float | None, observations: tuple, types: Sequence[int], t: int):
        self.anchor_load, self.observations, self.types, self.t = anchor_load, observations, types, t


class ForecastPath(_Record):
    """Per-step forecast means and stds, plus any cold-start substitutions (wanted, used) applied."""

    __slots__ = _fields = ("mean", "std", "cold_start_substitutions")

    def __init__(self, mean: list[float], std: list[float], cold_start_substitutions: tuple[tuple[int, int], ...] = ()):
        self.mean, self.std, self.cold_start_substitutions = mean, std, cold_start_substitutions


def forecast_step(
    mean: float,
    std: float,
    s_params: GaussianChannelParams,
    r_params: GaussianChannelParams,
    u_r: Sequence[float],
) -> tuple[float, float]:
    """Advance the forecast (mean, std) one step.

    Propagates the previous Gaussian through the transition channel
    (mean eta_s[0] + eta_s[1]*mean, variance grown by the squared slope)
    and conditions on the observation channel, whose regressor u_r has
    exactly R_DIM = 3 entries, or ValueError. Equivalent to one
    predict-then-condition pass of exact Gaussian filtering.
    """
    intercept, slope = s_params.eta
    trans_mean = intercept + slope * mean
    slope_std = slope * std
    prop_var = s_params.sigma * s_params.sigma + slope_std * slope_std
    obs_var = r_params.sigma * r_params.sigma
    denom = obs_var + prop_var
    if denom <= 0.0:
        raise DegenerateVariances("both channel variances and the propagated variance are zero")
    u0, u1, u2 = u_r
    e0, e1, e2 = r_params.eta
    obs_mean = u0 * e0 + u1 * e1 + u2 * e2
    return (trans_mean * obs_var + obs_mean * prop_var) / denom, math.sqrt(obs_var * prop_var / denom)


def predict(model: ModelParams, instance: InstanceVector, state: LearnerState | None = None) -> ForecastPath:
    """Forecast one step per observation slot of the instance.

    Each step uses the channels of its calendar type in instance.types; a
    missing observation takes the neutral regressor (1, 0, 0). When a
    learner state is supplied, a never-trained calendar type (gamma = 0 on
    the transition channel) borrows parameters from the nearest trained
    type; the substitution is reported on the returned path. ValueError
    unless the instance has an anchoring load and one calendar type per
    observation slot; IndexError for a type outside 1..CALENDAR_TYPES.
    """
    if instance.anchor_load is None:
        raise ValueError("prediction requires an anchoring load")
    observations, types = instance.observations, instance.types
    if not observations:
        raise ValueError("instance has no observation slots")
    if len(types) != len(observations):
        raise ValueError(f"instance has {len(types)} calendar types for {len(observations)} observation slots")
    s_channels, r_channels = model.s_channels, model.r_channels
    s_states = state.s_states if state is not None else None
    means: list[float] = []
    stds: list[float] = []
    substitutions: list[tuple[int, int]] = []
    mean, std = float(instance.anchor_load), 0.0
    for obs, c in zip(observations, types):
        if not 1 <= c <= CALENDAR_TYPES:
            raise IndexError(f"calendar type {c} outside 1..{CALENDAR_TYPES}")
        used = c
        if s_states is not None and s_states[c - 1].gamma == 0.0:
            used = _nearest_trained(state, c)
            substitutions.append((c, used))
        mean, std = forecast_step(mean, std, s_channels[used - 1], r_channels[used - 1],
                                  NO_SHIFT if obs is None else obs)
        means.append(mean)
        stds.append(std)
    return ForecastPath(means, stds, tuple(substitutions))


def _nearest_trained(state: LearnerState, c: int) -> int:
    """Nearest calendar type, in neighbour_types order, with at least one transition-channel update."""
    for cc in neighbour_types(c):
        if state.s_states[cc - 1].gamma > 0.0:
            return cc
    raise ColdStart(f"no trained calendar type available as fallback for {c}")
