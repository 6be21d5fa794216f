"""Shared data types for the online load model.

Two Gaussian channels are kept per calendar type: the load-transition
channel (next load given previous load, feature vector [1, s_prev]) and
the observation channel (load given encoded observations, feature vector
of length R). Each channel carries regression coefficients and a
conditional standard deviation, plus the recursive-update state (inverse
weighted Gram matrix P and effective weighted sample count gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = [
    "S_DIM",
    "HyperParams",
    "GaussianChannelParams",
    "ChannelState",
    "ModelParams",
    "LearnerState",
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


@dataclass(slots=True)
class GaussianChannelParams:
    """Coefficients eta (a list of K floats) and standard deviation sigma >= 0 of one channel."""

    eta: list[float]
    sigma: float

    @classmethod
    def zeros(cls, k: int, sigma0: float = 1.0) -> "GaussianChannelParams":
        return cls(eta=[0.0] * k, sigma=float(sigma0))


@dataclass(slots=True)
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
        """P = I as fresh lists, with the given gamma; ValueError unless K is 2 or 3."""
        if k == 2:
            return cls([[1.0, 0.0], [0.0, 1.0]], gamma)
        if k == 3:
            return cls([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], gamma)
        raise ValueError(f"a channel has K = 2 or 3 regressors, got {k}")


# Snapshot codec (format v1): the one place that turns channel records into
# JSON values and back. Reading checks every list length and array shape
# against the dimensions the snapshot declares, and every value against what
# a run can write: finite eta, finite sigma and gamma >= 0, and a symmetric
# positive definite P. A payload that fails is rejected before it reaches a run.


def _records_from_json(record_cls, items, n: int, k: int) -> list:
    """n records of record_cls from their JSON values, in one pass per record.

    A record's first field is a channel's eta, a list of k finite floats,
    or its P, a k x k matrix of them that must be symmetric positive
    definite, as every P the learner writes is: the update reads only its
    upper triangle and keeps P positive definite. Its second field is a
    channel's sigma or gamma, so it must be finite and >= 0. ValueError
    otherwise.
    """
    array_field, float_field = (f.name for f in fields(record_cls))
    square = record_cls is ChannelState
    records = []
    for item in _checked_list(items, n):
        value = float(item[float_field])
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{float_field} must be finite and >= 0, got {value}")
        array = item[array_field]
        if square:
            array = [_finite_floats(row, k) for row in _checked_list(array, k)]
            if not _symmetric(array):
                raise ValueError("P is not symmetric")
            if not _positive_definite(array):
                raise ValueError("P is not positive definite")
        else:
            array = _finite_floats(array, k)
        records.append(record_cls(array, value))
    return records


def _checked_list(items, n: int) -> list:
    """items, if it is a list of exactly n entries; ValueError otherwise."""
    if not isinstance(items, list) or len(items) != n:
        got = len(items) if isinstance(items, list) else type(items).__name__
        raise ValueError(f"expected a list of {n} entries, got {got}")
    return items


def _finite_floats(items, n: int) -> list[float]:
    """items as a new list of n finite floats; ValueError otherwise."""
    values = list(map(float, _checked_list(items, n)))
    # A finite sum proves every value finite; only an overflowing sum of
    # finite values needs the value-by-value check.
    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
        raise ValueError(f"expected finite values, got {values}")
    return values


def _symmetric(p: list) -> bool:
    """Whether the K x K matrix p (K = 2 or 3) is exactly symmetric."""
    if len(p) == 2:
        return p[0][1] == p[1][0]
    return p[0][1] == p[1][0] and p[0][2] == p[2][0] and p[1][2] == p[2][1]


def _positive_definite(p: list) -> bool:
    """Whether the symmetric matrix p is positive definite.

    Sylvester's criterion, written out for the two channel shapes K = 2
    and K = 3: every leading principal minor is positive.
    """
    if len(p) == 2:
        (a, b), (_, d) = p
        return a > 0.0 and a * d - b * b > 0.0
    (a, b, c), (_, d, e), (_, _, f) = p
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    return a > 0.0 and a * d - b * b > 0.0 and det > 0.0


@dataclass
class ModelParams:
    """Per-calendar-type channel parameters; calendar type c owns entry c - 1 of each list."""

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

    def to_dict(self) -> dict:
        """Every channel as {"eta": [...], "sigma": float}; eta lists are shared, not copied."""
        return {"s_channels": [{"eta": c.eta, "sigma": float(c.sigma)} for c in self.s_channels],
                "r_channels": [{"eta": c.eta, "sigma": float(c.sigma)} for c in self.r_channels]}

    @classmethod
    def from_dict(cls, d: dict, n_calendar_types: int, r_dim: int) -> "ModelParams":
        """Inverse of to_dict; ValueError unless every list and eta has the given dimensions
        and every value is one a run can write."""
        return cls(
            s_channels=_records_from_json(GaussianChannelParams, d["s_channels"], n_calendar_types, S_DIM),
            r_channels=_records_from_json(GaussianChannelParams, d["r_channels"], n_calendar_types, r_dim),
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

    def to_dict(self) -> dict:
        """Every channel state as {"P": [[...]], "gamma": float}; P lists are shared, not copied."""
        return {"s_states": [{"P": c.P, "gamma": float(c.gamma)} for c in self.s_states],
                "r_states": [{"P": c.P, "gamma": float(c.gamma)} for c in self.r_states]}

    @classmethod
    def from_dict(cls, d: dict, n_calendar_types: int, r_dim: int) -> "LearnerState":
        """Inverse of to_dict; ValueError unless every list and P has the given dimensions
        and every value is one a run can write."""
        return cls(
            s_states=_records_from_json(ChannelState, d["s_states"], n_calendar_types, S_DIM),
            r_states=_records_from_json(ChannelState, d["r_states"], n_calendar_types, r_dim),
        )
