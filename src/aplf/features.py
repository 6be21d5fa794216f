"""Calendar typing and observation encoding.

Timestamps map to one of 48 calendar types (hour of day, split by
weekday vs. weekend/holiday). A temperature and the mean past temperature
of its calendar type are encoded into the observation channel's
regressor, a binary vector that flags extreme temperature shifts.
"""

from __future__ import annotations

from datetime import date, datetime
from typing import Iterable

from .model_types import HyperParams

__all__ = [
    "CALENDAR_TYPES",
    "HOURS_PER_DAY",
    "TemperatureTracker",
    "TemperatureShiftEncoder",
    "calendar_type",
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


# The four regressors (1, a1, a2), indexed by a1 + 2 * a2. Encoding returns
# one of these shared tuples, so a run's instances hold references and
# allocate nothing per observation.
_ENCODED = ((1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0))


class TemperatureShiftEncoder:
    """Regressor of the observation channel (r_dim = 3)."""

    r_dim = 3

    def __init__(self, hp: HyperParams):
        self.hp = hp

    def encode(self, w: float, w_bar: float) -> tuple[float, float, float]:
        """Encode temperature w, given the mean past temperature w_bar of its calendar
        type (both deg F), as (1, a1, a2).

        a1 flags an upward shift (w - w_bar > w1), a2 a downward shift
        (w - w_bar < -w1); either flag also requires an extreme temperature
        (w > w2 or w < w3). With w1 >= 0 at most one flag is set.
        """
        hp = self.hp
        if not (w > hp.w2 or w < hp.w3):
            return _ENCODED[0]
        shift = w - w_bar
        return _ENCODED[(shift > hp.w1) + 2 * (shift < -hp.w1)]


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

    def mean(self, c: int) -> float | None:
        """Mean past temperature for type c, or None while no ingests yet."""
        n = self.counts[c - 1]
        if n == 0:
            return None
        return self.sums[c - 1] / n
