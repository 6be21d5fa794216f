"""Shared data types for the online load model.

Two Gaussian channels are kept for each of the CALENDAR_TYPES calendar
types (every hour of day, once per day class): the load-transition
channel (next load given previous load, feature vector [1, s_prev]) and
the observation channel (load given encoded observations, feature vector
of length R_DIM). Each channel carries regression coefficients and a
conditional standard deviation, plus the recursive-update state (inverse
weighted Gram matrix P and effective weighted sample count gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

__all__ = [
    "CALENDAR_TYPES",
    "HOURS_PER_DAY",
    "R_DIM",
    "S_DIM",
    "HyperParams",
    "InputError",
    "NumericError",
    "GaussianChannelParams",
    "ChannelState",
    "ModelParams",
    "LearnerState",
]

# Channel feature dimensions are fixed by the model: the transition channel
# regresses on [1, s_prev], the observation channel on the encoded
# temperature [1, a1, a2].
S_DIM = 2
R_DIM = 3

HOURS_PER_DAY = 24

# The model's calendar types: every hour of day, once per day class
# (weekday; weekend or holiday).
CALENDAR_TYPES = 2 * HOURS_PER_DAY


class InputError(Exception):
    """An input file, setting or column the package cannot use; the command line exits 2."""


class NumericError(Exception):
    """A numerical degeneracy of the model or of a forecast; the command line exits 3."""


@dataclass(frozen=True)
class HyperParams:
    """Run-time model configuration.

    lambda_s / lambda_r are the forgetting factors of the transition and
    observation channels. w1 is the minimum deviation from the running
    calendar-type mean temperature that counts as a shift; a shift is only
    flagged when the temperature is also extreme (above w2 or below w3,
    degrees Fahrenheit); none of the three may be NaN. horizon is the
    number of steps predicted per instance. trace_reset_threshold bounds
    trace(P) before the state matrix is reinitialized.
    """

    lambda_s: float = 0.2
    lambda_r: float = 0.7
    w1: float = 20.0
    w2: float = 80.0
    w3: float = 20.0
    horizon: int = 24
    trace_reset_threshold: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.lambda_s < 1.0:
            raise ValueError(f"lambda_s must be in (0, 1), got {self.lambda_s}")
        if not 0.0 < self.lambda_r < 1.0:
            raise ValueError(f"lambda_r must be in (0, 1), got {self.lambda_r}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not self.trace_reset_threshold > 0.0:
            raise ValueError("trace_reset_threshold must be > 0")
        for name in ("w1", "w2", "w3"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")


@dataclass(slots=True)
class GaussianChannelParams:
    """Coefficients eta (a list of K floats) and standard deviation sigma >= 0 of one channel."""

    eta: list[float]
    sigma: float

    @classmethod
    def zeros(cls, k: int) -> "GaussianChannelParams":
        return cls(eta=[0.0] * k, sigma=1.0)


_IDENTITY = {2: (1.0, 0.0, 1.0), 3: (1.0, 0.0, 0.0, 1.0, 0.0, 1.0)}


@dataclass(slots=True)
class ChannelState:
    """Recursive-update state of one channel.

    P is the symmetric K x K inverse weighted Gram matrix as the immutable
    tuple of its upper triangle, row-major: (p00, p01, p11) for K = 2 and
    (p00, p01, p02, p11, p12, p22) for K = 3; an update stores a new one.
    gamma is the geometric sum of sample weights, 0 before the first update.
    """

    P: tuple[float, ...]
    gamma: float

    @classmethod
    def identity(cls, k: int, gamma: float = 0.0) -> "ChannelState":
        """P = I, as the shared identity tuple, with the given gamma; ValueError unless K is 2 or 3."""
        if k not in _IDENTITY:
            raise ValueError(f"a channel has K = 2 or 3 regressors, got {k}")
        return cls(_IDENTITY[k], gamma)


# Snapshot codec (format v1): the one place that turns channel records into
# JSON values and back. Reading checks every list length and array shape
# against the dimensions the snapshot declares, and every value against what
# a run can write: finite eta, finite sigma and gamma >= 0, and a symmetric
# positive definite P, written as its K x K nested list and read back to its
# upper triangle. A payload that fails is rejected before it reaches a run.


def _records_from_json(record_cls, items, n: int, k: int) -> list:
    """n records of record_cls from their JSON values, in one pass per record.

    A record's first field is a channel's eta, a list of k finite floats,
    or its P, a k x k matrix of them that must be symmetric positive
    definite, as every P the learner writes is, kept as its upper triangle.
    Its second field is a channel's sigma or gamma, so it must be finite
    and >= 0. ValueError otherwise.
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
            array = _upper_triangle([_finite_floats(row, k) for row in _checked_list(array, k)])
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


def _upper_triangle(rows: list) -> tuple[float, ...]:
    """The upper triangle, row-major, of the K x K matrix rows; ValueError unless symmetric."""
    if len(rows) == 2:
        (a, b), (b_, d) = rows
        triangle, symmetric = (a, b, d), b == b_
    else:
        (a, b, c), (b_, d, e), (c_, e_, f) = rows
        triangle, symmetric = (a, b, c, d, e, f), b == b_ and c == c_ and e == e_
    if not symmetric:
        raise ValueError("P is not symmetric")
    return triangle


def _square(p: tuple[float, ...]) -> list[list[float]]:
    """The K x K nested list of the upper triangle p, as a snapshot stores P."""
    if len(p) == 3:
        a, b, d = p
        return [[a, b], [b, d]]
    a, b, c, d, e, f = p
    return [[a, b, c], [b, d, e], [c, e, f]]


def _positive_definite(p: tuple[float, ...]) -> bool:
    """Whether the symmetric matrix of upper triangle p is positive definite.

    Sylvester's criterion, written out for the two channel shapes K = 2
    and K = 3: every leading principal minor is positive.
    """
    if len(p) == 3:
        a, b, d = p
        return a > 0.0 and a * d - b * b > 0.0
    a, b, c, d, e, f = p
    det = a * (d * f - e * e) - b * (b * f - c * e) + c * (b * e - c * d)
    return a > 0.0 and a * d - b * b > 0.0 and det > 0.0


@dataclass
class ModelParams:
    """Per-calendar-type channel parameters; calendar type c owns entry c - 1 of each list."""

    s_channels: list[GaussianChannelParams]
    r_channels: list[GaussianChannelParams]

    @classmethod
    def initial(cls) -> "ModelParams":
        return cls(
            s_channels=[GaussianChannelParams.zeros(S_DIM) for _ in range(CALENDAR_TYPES)],
            r_channels=[GaussianChannelParams.zeros(R_DIM) for _ in range(CALENDAR_TYPES)],
        )

    def to_dict(self) -> dict:
        """Every channel as {"eta": [...], "sigma": float}; eta lists are shared, not copied."""
        return {"s_channels": [{"eta": c.eta, "sigma": float(c.sigma)} for c in self.s_channels],
                "r_channels": [{"eta": c.eta, "sigma": float(c.sigma)} for c in self.r_channels]}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        """Inverse of to_dict; ValueError unless there are CALENDAR_TYPES channels of each
        kind, every eta has its channel's dimension and every value is one a run can write."""
        return cls(
            s_channels=_records_from_json(GaussianChannelParams, d["s_channels"], CALENDAR_TYPES, S_DIM),
            r_channels=_records_from_json(GaussianChannelParams, d["r_channels"], CALENDAR_TYPES, R_DIM),
        )


@dataclass
class LearnerState:
    """Per-calendar-type recursive-update state for both channels.

    pending holds the sample buffers of the transition channels still
    awaiting batch initialization, keyed ("s", c) for calendar type c: a
    list of (u, s) samples each. Snapshots of earlier versions may also
    hold observation-channel buffers, keyed ("r", c), which OnlineLearner
    replays from the zero start when it takes the state.
    """

    s_states: list[ChannelState]
    r_states: list[ChannelState]
    pending: dict[tuple[str, int], list[tuple[tuple[float, ...], float]]] = field(default_factory=dict)

    @classmethod
    def initial(cls) -> "LearnerState":
        return cls(
            s_states=[ChannelState.identity(S_DIM) for _ in range(CALENDAR_TYPES)],
            r_states=[ChannelState.identity(R_DIM) for _ in range(CALENDAR_TYPES)],
        )

    def to_dict(self) -> dict:
        """Every channel state as {"P": [[...]], "gamma": float}, P as its full K x K nested
        list, without the pending buffers."""
        return {"s_states": [{"P": _square(c.P), "gamma": float(c.gamma)} for c in self.s_states],
                "r_states": [{"P": _square(c.P), "gamma": float(c.gamma)} for c in self.r_states]}

    @classmethod
    def from_dict(cls, d: dict) -> "LearnerState":
        """Inverse of to_dict, with no pending buffers; ValueError unless there are
        CALENDAR_TYPES states of each kind, every P has its channel's dimension and every
        value is one a run can write."""
        return cls(
            s_states=_records_from_json(ChannelState, d["s_states"], CALENDAR_TYPES, S_DIM),
            r_states=_records_from_json(ChannelState, d["r_states"], CALENDAR_TYPES, R_DIM),
        )
