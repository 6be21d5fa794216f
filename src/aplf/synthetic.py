"""Synthetic hourly load/temperature series for experiments and tests."""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

__all__ = ["make_hourly_series", "write_series_csv"]


def _two_peak_profile(hour: int, weekend: bool) -> float:
    morning = 0.8 * math.exp(-((hour - 8) / 2.0) ** 2)
    evening = 1.0 * math.exp(-((hour - 19) / 2.5) ** 2)
    base = 2.0 + morning + evening
    return 0.85 * base if weekend else base


def _flat_profile(hour: int, weekend: bool) -> float:
    base = 2.2 + 0.3 * math.sin(2.0 * math.pi * hour / 24.0)
    return 0.9 * base if weekend else base


def make_hourly_series(
    n_days: int,
    start: datetime | None = None,
    switch_day: int | None = None,
    noise: float = 0.01,
    seed: int = 0,
) -> list[tuple[datetime, float, float]]:
    """Hourly (timestamp, load, temperature) rows over n_days.

    Loads follow a two-peak daily profile (damped on weekends); from
    switch_day onward (0-based) the consumption switches to a flatter
    profile. Temperatures follow mild seasonal and diurnal sines, so the
    observation encoding stays in its neutral state almost everywhere.
    """
    if start is None:
        start = datetime(2021, 3, 1, 0, 0, tzinfo=timezone.utc)
    rng = np.random.default_rng(seed)
    rows = []
    for day in range(n_days):
        profile = _flat_profile if switch_day is not None and day >= switch_day else _two_peak_profile
        for hour in range(24):
            ts = start + timedelta(days=day, hours=hour)
            weekend = ts.weekday() >= 5
            load = profile(hour, weekend) + float(rng.normal(scale=noise))
            temp = (
                55.0
                + 12.0 * math.sin(2.0 * math.pi * (day % 365) / 365.0)
                + 8.0 * math.sin(2.0 * math.pi * (hour - 14) / 24.0)
                + float(rng.normal(scale=0.5))
            )
            rows.append((ts, load, temp))
    return rows


def write_series_csv(path: Path | str, rows, include_temperature: bool = True) -> None:
    """Write rows in the harness CSV format (header: timestamp,load[,temperature])."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if include_temperature:
            writer.writerow(["timestamp", "load", "temperature"])
            for ts, load, temp in rows:
                writer.writerow([ts.isoformat(), repr(float(load)), repr(float(temp))])
        else:
            writer.writerow(["timestamp", "load"])
            for ts, load, _ in rows:
                writer.writerow([ts.isoformat(), repr(float(load))])
