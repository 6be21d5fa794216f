"""Calendar typing and observation encoding.

Timestamps map to one of 48 calendar types (hour of day, split by
weekday vs. weekend/holiday). Raw observations are (temperature, mean
past temperature for the calendar type) pairs, encoded into a binary
feature vector that flags extreme temperature shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime
from typing import Iterable

from .model_types import HyperParams

__all__ = [
    "CALENDAR_TYPES",
    "HOURS_PER_DAY",
    "ObservationVector",
    "TemperatureTracker",
    "TemperatureShiftEncoder",
    "calendar_type",
    "encode_observations",
    "neighbour_types",
]

HOURS_PER_DAY = 24

# Size of calendar_type's image: every hour of day, once per day class
# (weekday; weekend or holiday).
CALENDAR_TYPES = 2 * HOURS_PER_DAY


def calendar_type(timestamp: datetime, holidays: Iterable[date] = ()) -> int:
    """Calendar type of a civil timestamp.

    Hour h of a weekday maps to h+1; hour h of a Saturday, Sunday, or
    holiday maps to h+25. Total over all inputs; image is exactly 1..48.
    """
    h = timestamp.hour
    if timestamp.weekday() >= 5 or timestamp.date() in holidays:
        return h + HOURS_PER_DAY + 1
    return h + 1


def neighbour_types(c: int, n: int) -> list[int]:
    """Calendar types to try, nearest first, in place of a never-trained type c.

    In calendar_type's layout (n == CALENDAR_TYPES) the same hour in the
    other day class comes first, then the search widens hour by hour, the
    same day class before the other. Any other layout widens by index
    distance.
    """
    if n != CALENDAR_TYPES:
        return sorted((cc for cc in range(1, n + 1) if cc != c), key=lambda cc: (abs(cc - c), cc))
    hour, day_class = (c - 1) % HOURS_PER_DAY, (c - 1) // HOURS_PER_DAY
    other = 1 - day_class

    def ct(cls: int, h: int) -> int:
        return cls * HOURS_PER_DAY + h % HOURS_PER_DAY + 1

    order = [ct(other, hour)]
    for d in range(1, HOURS_PER_DAY):
        order += [ct(day_class, hour - d), ct(day_class, hour + d), ct(other, hour - d), ct(other, hour + d)]
    return order


@dataclass(frozen=True)
class ObservationVector:
    """One raw observation: temperature w and mean past temperature w_bar, both deg F."""

    w: float
    w_bar: float


def encode_observations(w: float, w_bar: float, hp: HyperParams) -> tuple[float, float, float]:
    """Encode a temperature observation as (1, a1, a2).

    a1 flags an upward shift (w - w_bar > w1), a2 a downward shift
    (w - w_bar < -w1); either flag also requires an extreme temperature
    (w > w2 or w < w3). At most one flag is set.
    """
    extreme = w > hp.w2 or w < hp.w3
    shift = w - w_bar
    a1 = 1.0 if (shift > hp.w1 and extreme) else 0.0
    a2 = 1.0 if (shift < -hp.w1 and extreme) else 0.0
    return (1.0, a1, a2)


class TemperatureShiftEncoder:
    """Feature encoder for the observation channel (r_dim = 3).

    Encodes ObservationVector pairs via encode_observations; a missing
    observation falls back to the neutral vector (1, 0, 0).
    """

    r_dim = 3

    def __init__(self, hp: HyperParams):
        self.hp = hp

    def encode(self, obs: ObservationVector) -> tuple[float, float, float]:
        return encode_observations(obs.w, obs.w_bar, self.hp)

    def missing(self) -> tuple[float, float, float]:
        return (1.0, 0.0, 0.0)


class TemperatureTracker:
    """Running mean of past temperatures per calendar type.

    The mean is the plain arithmetic mean of every temperature ingested
    for the type (no forgetting); it is undefined until the first ingest.
    """

    def __init__(self, n_calendar_types: int):
        self.counts = [0] * n_calendar_types
        self.sums = [0.0] * n_calendar_types

    def add(self, c: int, w: float) -> None:
        self.counts[c - 1] += 1
        self.sums[c - 1] += w

    def count(self, c: int) -> int:
        return self.counts[c - 1]

    def mean(self, c: int) -> float | None:
        """Mean past temperature for type c, or None while no ingests yet."""
        n = self.counts[c - 1]
        if n == 0:
            return None
        return self.sums[c - 1] / n
