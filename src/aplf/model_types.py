"""Shared data types for the online load model.

Two Gaussian channels are kept per calendar type: the load-transition
channel (next load given previous load, feature vector [1, s_prev]) and
the observation channel (load given encoded observations, feature vector
of length R). Each channel carries regression coefficients and a
conditional standard deviation, plus the recursive-update state (inverse
weighted Gram matrix P and effective weighted sample count gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

import numpy as np

__all__ = [
    "S_DIM",
    "HyperParams",
    "GaussianChannelParams",
    "ChannelState",
    "ModelParams",
    "LearnerState",
    "ForecastPoint",
]

# Transition-channel feature dimension is fixed by the model: [1, s_prev].
S_DIM = 2


@dataclass(frozen=True)
class HyperParams:
    """Run-time model configuration.

    lambda_s / lambda_r are the forgetting factors of the transition and
    observation channels. w1 is the minimum deviation from the running
    calendar-type mean temperature that counts as a shift; a shift is only
    flagged when the temperature is also extreme (above w2 or below w3,
    degrees Fahrenheit). horizon is the number of steps predicted per
    instance. trace_reset_threshold bounds trace(P) before the state
    matrix is reinitialized.
    """

    lambda_s: float = 0.2
    lambda_r: float = 0.7
    w1: float = 20.0
    w2: float = 80.0
    w3: float = 20.0
    n_calendar_types: int = 48
    horizon: int = 24
    trace_reset_threshold: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.lambda_s < 1.0:
            raise ValueError(f"lambda_s must be in (0, 1), got {self.lambda_s}")
        if not 0.0 < self.lambda_r < 1.0:
            raise ValueError(f"lambda_r must be in (0, 1), got {self.lambda_r}")
        if self.n_calendar_types < 1:
            raise ValueError("n_calendar_types must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self.trace_reset_threshold > 0.0:
            raise ValueError("trace_reset_threshold must be > 0")


@dataclass
class GaussianChannelParams:
    """Coefficients eta (a list of K floats) and standard deviation sigma >= 0 of one channel."""

    eta: list[float]
    sigma: float

    @classmethod
    def zeros(cls, k: int, sigma0: float = 1.0) -> "GaussianChannelParams":
        return cls(eta=[0.0] * k, sigma=float(sigma0))


@dataclass
class ChannelState:
    """Recursive-update state of one channel.

    P is the K x K inverse weighted Gram matrix as a nested list of
    floats. It is exactly symmetric by construction: every update computes
    its upper triangle and mirrors it. gamma is the geometric sum of sample
    weights, 0 only before the first update.
    """

    P: list[list[float]]
    gamma: float

    @classmethod
    def identity(cls, k: int, gamma: float = 0.0) -> "ChannelState":
        """P = I (fresh lists, copied from a cached template), with the given gamma."""
        return cls(P=list(map(list, _identity_rows(k))), gamma=gamma)


@cache
def _identity_rows(k: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(i == j) for j in range(k)) for i in range(k))


def _check_calendar_index(c: int, n: int) -> int:
    if not 1 <= c <= n:
        raise IndexError(f"calendar type {c} outside 1..{n}")
    return c - 1


# Snapshot codec (format v1): the one place that turns channel records into
# JSON values and back. Reading checks every list length and array shape
# against the dimensions the snapshot declares, so a payload that
# contradicts its own header is rejected before it reaches a run.


def _records_to_json(records: list) -> list[dict]:
    """Each record's fields as JSON values: lists stay (nested) lists of floats, scalars become floats."""
    return [{k: v if isinstance(v, list) else float(v) for k, v in vars(r).items()} for r in records]


def _records_from_json(record_cls, items, n: int, shape: tuple[int, ...]) -> list:
    """n records of record_cls, whose fields are a (nested) float list of the given shape and a float."""
    array_field, float_field = (f.name for f in fields(record_cls))
    return [record_cls(_checked_array(item[array_field], shape).tolist(), float(item[float_field]))
            for item in _checked_list(items, n)]


def _checked_list(items, n: int) -> list:
    """items, if it is a list of exactly n entries; ValueError otherwise."""
    if not isinstance(items, list) or len(items) != n:
        got = len(items) if isinstance(items, list) else type(items).__name__
        raise ValueError(f"expected a list of {n} entries, got {got}")
    return items


def _checked_array(value, shape: tuple[int, ...]) -> np.ndarray:
    """value as a float array of exactly the given shape; ValueError otherwise.

    A square matrix (the only one is a channel's P) must also equal its
    transpose exactly, as every P the learner writes does: the update reads
    only its upper triangle.
    """
    a = np.asarray(value, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected an array of shape {shape}, got {a.shape}")
    if a.ndim == 2 and not np.array_equal(a, a.T):
        raise ValueError("P is not symmetric")
    return a


@dataclass
class ModelParams:
    """Per-calendar-type channel parameters, indexable by calendar type in O(1)."""

    s_channels: list[GaussianChannelParams]
    r_channels: list[GaussianChannelParams]

    @classmethod
    def initial(cls, n_calendar_types: int, r_dim: int, sigma0: float = 1.0) -> "ModelParams":
        return cls(
            s_channels=[GaussianChannelParams.zeros(S_DIM, sigma0) for _ in range(n_calendar_types)],
            r_channels=[GaussianChannelParams.zeros(r_dim, sigma0) for _ in range(n_calendar_types)],
        )

    @property
    def n_calendar_types(self) -> int:
        return len(self.s_channels)

    @property
    def r_dim(self) -> int:
        return len(self.r_channels[0].eta)

    def s_channel(self, c: int) -> GaussianChannelParams:
        return self.s_channels[_check_calendar_index(c, len(self.s_channels))]

    def r_channel(self, c: int) -> GaussianChannelParams:
        return self.r_channels[_check_calendar_index(c, len(self.r_channels))]

    def to_dict(self) -> dict:
        return {"s_channels": _records_to_json(self.s_channels), "r_channels": _records_to_json(self.r_channels)}

    @classmethod
    def from_dict(cls, d: dict, n_calendar_types: int, r_dim: int) -> "ModelParams":
        """Inverse of to_dict; ValueError unless every list and eta has the given dimensions."""
        return cls(
            s_channels=_records_from_json(GaussianChannelParams, d["s_channels"], n_calendar_types, (S_DIM,)),
            r_channels=_records_from_json(GaussianChannelParams, d["r_channels"], n_calendar_types, (r_dim,)),
        )


@dataclass
class LearnerState:
    """Per-calendar-type recursive-update state for both channels."""

    s_states: list[ChannelState]
    r_states: list[ChannelState]

    @classmethod
    def initial(cls, n_calendar_types: int, r_dim: int) -> "LearnerState":
        return cls(
            s_states=[ChannelState.identity(S_DIM) for _ in range(n_calendar_types)],
            r_states=[ChannelState.identity(r_dim) for _ in range(n_calendar_types)],
        )

    def s_state(self, c: int) -> ChannelState:
        return self.s_states[_check_calendar_index(c, len(self.s_states))]

    def to_dict(self) -> dict:
        return {"s_states": _records_to_json(self.s_states), "r_states": _records_to_json(self.r_states)}

    @classmethod
    def from_dict(cls, d: dict, n_calendar_types: int, r_dim: int) -> "LearnerState":
        """Inverse of to_dict; ValueError unless every list and P has the given dimensions."""
        return cls(
            s_states=_records_from_json(ChannelState, d["s_states"], n_calendar_types, (S_DIM, S_DIM)),
            r_states=_records_from_json(ChannelState, d["r_states"], n_calendar_types, (r_dim, r_dim)),
        )


@dataclass(frozen=True)
class ForecastPoint:
    """Gaussian predictive distribution for one step: mean, std >= 0, time index t."""

    mean: float
    std: float
    t: int
