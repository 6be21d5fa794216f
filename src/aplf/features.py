"""Calendar typing and observation encoding.

Timestamps map to one of the model's CALENDAR_TYPES calendar types (hour
of day, split by weekday vs. weekend/holiday). A temperature and the mean
past temperature of its calendar type are encoded into the observation
channel's regressor, a binary vector that flags extreme temperature shifts.
"""

from __future__ import annotations

from datetime import date, datetime
from typing import Iterable

from .model_types import CALENDAR_TYPES, HOURS_PER_DAY, HyperParams, _Record

__all__ = [
    "NO_SHIFT",
    "TemperatureTracker",
    "TemperatureShiftEncoder",
    "calendar_type",
    "neighbour_types",
]


def calendar_type(timestamp: datetime, holidays: Iterable[date] = ()) -> int:
    """Calendar type of a civil timestamp.

    Hour h of a weekday maps to h+1; hour h of a Saturday, Sunday, or
    holiday maps to h+25. Total over all inputs; image is exactly 1..48.
    """
    h = timestamp.hour
    if timestamp.weekday() >= 5 or timestamp.date() in holidays:
        return h + HOURS_PER_DAY + 1
    return h + 1


def neighbour_types(c: int) -> list[int]:
    """The other calendar types, nearest first, to try in place of a never-trained type c.

    The same hour in the other day class comes first, then the search
    widens hour by hour, the same day class before the other.
    """
    hour, day_class = (c - 1) % HOURS_PER_DAY, (c - 1) // HOURS_PER_DAY
    other = 1 - day_class

    def ct(cls: int, h: int) -> int:
        return cls * HOURS_PER_DAY + h % HOURS_PER_DAY + 1

    half = HOURS_PER_DAY // 2
    order = [ct(other, hour)]
    for d in range(1, half):
        order += [ct(day_class, hour - d), ct(day_class, hour + d), ct(other, hour - d), ct(other, hour + d)]
    # The opposite hour of the clock lies half a day away both ways round.
    return order + [ct(day_class, hour + half), ct(other, hour + half)]


# The regressor that flags no shift: the intercept alone. It is also the
# observation-channel regressor of a step whose observation is missing.
NO_SHIFT = (1.0, 0.0, 0.0)
# The four regressors (1, a1, a2), indexed by a1 + 2 * a2. Encoding returns
# one of these shared tuples, so a run's instances hold references and
# allocate nothing per observation.
_ENCODED = (NO_SHIFT, (1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0))


class TemperatureShiftEncoder:
    """Regressor of the observation channel, of length R_DIM."""

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
            return NO_SHIFT
        shift = w - w_bar
        return _ENCODED[(shift > hp.w1) + 2 * (shift < -hp.w1)]


class TemperatureTracker(_Record):
    """The plain mean, with no forgetting, of the temperatures learned per calendar type:
    type c's count and sum of them are entry c - 1 of counts and sums, zeros by default."""

    __slots__ = _fields = ("counts", "sums")

    def __init__(self, counts: list[int] | None = None, sums: list[float] | None = None):
        self.counts = [0] * CALENDAR_TYPES if counts is None else counts
        self.sums = [0.0] * CALENDAR_TYPES if sums is None else sums

    def observations(self, encoder: TemperatureShiftEncoder, types: Iterable[int],
                     temps: Iterable[float | None]) -> list[tuple[float, float, float] | None]:
        """For each step, encoder.encode(w, w_bar) of its temperature w and the mean w_bar
        of its type's learned temperatures (w itself before the type's first), or None
        for a missing temperature. The tracker does not change."""
        encode, counts, sums = encoder.encode, self.counts, self.sums
        return [None if w is None else encode(w, sums[c - 1] / n if (n := counts[c - 1]) else w)
                for c, w in zip(types, temps)]

    def learn(self, types: Iterable[int], temps: Iterable[float | None]) -> None:
        """Add each known temperature to the mean of its step's calendar type."""
        counts, sums = self.counts, self.sums
        for c, w in zip(types, temps):
            if w is not None:
                counts[c - 1] += 1
                sums[c - 1] += w
