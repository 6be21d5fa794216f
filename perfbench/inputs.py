"""Seeded input files for the benchmark workloads.

Each function here derives its inputs from the seed alone and writes plain
CSV and config files into a work directory; the program under test only
ever sees those files. Series come from `aplf.synthetic`; the stress
transformations (temperature events, blank cells, holidays, Celsius) are
applied here on top of it. Nothing in this module is timed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from aplf.synthetic import make_hourly_series, write_series_csv

DAY = timedelta(days=1)
PREDICTION_HOUR = 11  # the harness default prediction time, 11:00

# Fixed month/day holidays; each year of the series gets all of them.
HOLIDAYS = ((1, 1), (5, 30), (7, 4), (9, 5), (11, 24), (12, 25))
TRAIN_DAYS = 30  # training span of both replays
BLANK_SHARE = 0.02  # share of blank load cells, and of blank temperature cells, on replay_stress


@dataclass(frozen=True)
class ReplayInput:
    """One batch replay: input files plus what the benchmark expects of the run."""

    csv: Path
    config: Path
    n_rows: int
    test_anchors: tuple[datetime, ...]  # every prediction instant in the test span
    skipped: frozenset  # test anchors whose anchoring load is blank


@dataclass(frozen=True)
class DailyInput:
    """A warm-up history plus one resumable one-day window per cycle."""

    warm_csv: Path
    warm_config: Path
    full_csv: Path  # warm-up history and every cycle day, for the reference replay
    full_config: Path
    windows: tuple[tuple[Path, Path], ...]  # (csv, config) per cycle day
    window_rows: int


def _write_config(path: Path, **values) -> Path:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return path


def _write_rows(path: Path, rows) -> None:
    """Write (timestamp, load, temperature) rows; None becomes a blank cell."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "load", "temperature"])
        for ts, load, temp in rows:
            writer.writerow([
                ts.isoformat(),
                "" if load is None else repr(float(load)),
                "" if temp is None else repr(float(temp)),
            ])


def _anchors(rows, train_end: datetime) -> tuple[datetime, ...]:
    return tuple(ts for ts, _, _ in rows if ts.hour == PREDICTION_HOUR and ts.minute == 0 and ts >= train_end)


def replay_3y(seed: int, work: Path, days: int = 1095) -> ReplayInput:
    """The reference replay: paper defaults, zero init, a mid-series pattern switch."""
    rows = make_hourly_series(days, switch_day=days // 2, seed=seed)
    train_end = rows[0][0] + TRAIN_DAYS * DAY
    write_series_csv(work / "series.csv", rows)
    config = _write_config(work / "run.cfg", load_unit="GW", train_end=train_end.isoformat())
    return ReplayInput(csv=work / "series.csv", config=config, n_rows=len(rows),
                       test_anchors=_anchors(rows, train_end), skipped=frozenset())


def _holidays_between(first: date, last: date) -> set[date]:
    return {date(y, m, d) for y in range(first.year, last.year + 1) for m, d in HOLIDAYS
            if first <= date(y, m, d) <= last}


def replay_stress(seed: int, work: Path, days: int = 730, events: int = 12) -> ReplayInput:
    """Two years with temperature events, blank cells, holidays and Celsius input.

    The span after the first week is cut into `events` equal segments; each
    holds one 3-day heat wave in its first half and one 3-day cold snap in
    its second, at seeded offsets. A heat wave pulls temperatures to about
    90 deg F and a cold snap to about 10 deg F, far enough from the
    calendar-type mean and extreme enough to set the a1/a2 encoder flags;
    loads rise during both. Holidays take the weekend load level. About
    BLANK_SHARE of the load cells and, independently, of the temperature
    cells are left blank.
    """
    rng = np.random.default_rng([seed, 1])
    base = make_hourly_series(days, switch_day=days // 2, seed=seed)
    holidays = _holidays_between(base[0][0].date(), base[-1][0].date())

    event_temp = np.full(len(base), np.nan)  # the level an event pulls temperatures to
    load_shift = np.zeros(len(base))
    half = (days - 7) // events // 2
    for j in range(events):
        for level, extra_load, first in ((90.0, 0.4, 7 + 2 * j * half), (10.0, 0.3, 7 + (2 * j + 1) * half)):
            start = (first + int(rng.integers(0, half - 3))) * 24
            event_temp[start:start + 72] = level
            load_shift[start:start + 72] = extra_load
    blank_load = rng.random(len(base)) < BLANK_SHARE
    blank_temp = rng.random(len(base)) < BLANK_SHARE

    rows = []
    for i, (ts, load, temp_f) in enumerate(base):
        if ts.date() in holidays and ts.weekday() < 5:
            load *= 0.85
        load = None if blank_load[i] else load + load_shift[i]
        if not np.isnan(event_temp[i]):
            temp_f = event_temp[i] + 0.3 * (temp_f - 55.0)  # keep a damped diurnal swing
        temp_c = None if blank_temp[i] else (temp_f - 32.0) * 5.0 / 9.0
        rows.append((ts, load, temp_c))
    _write_rows(work / "series.csv", rows)

    train_end = rows[0][0] + TRAIN_DAYS * DAY
    config = _write_config(
        work / "run.cfg",
        load_unit="GW",
        temperature_unit="C",
        init_mode="batch",
        holidays=", ".join(d.isoformat() for d in sorted(holidays)),
        train_end=train_end.isoformat(),
    )
    anchors = _anchors(rows, train_end)
    loads = {ts: load for ts, load, _ in rows}
    return ReplayInput(csv=work / "series.csv", config=config, n_rows=len(rows), test_anchors=anchors,
                       skipped=frozenset(a for a in anchors if loads[a] is None))


def daily_resume(seed: int, work: Path, warm_days: int = 365, cycle_days: int = 120) -> DailyInput:
    """One year of warm-up history, then one CSV window and config per cycle day.

    The warm-up run ends with the test anchor of its last full day, so its
    snapshot cursor sits just before the first cycle. Window k spans cycle
    day k 00:00 to day k+1 11:00, and its config brackets day k with
    train_end/test_end, so each cycle predicts and learns exactly one anchor.
    """
    rows = make_hourly_series(warm_days + cycle_days + 1, switch_day=warm_days + cycle_days // 2, seed=seed)
    first_cycle = rows[0][0] + warm_days * DAY

    def through_next_prediction(day: int):
        """Rows from the start of day `day` through 11:00 of the day after it."""
        return rows[day * 24:(day + 1) * 24 + PREDICTION_HOUR + 1]

    write_series_csv(work / "warm.csv", rows[:warm_days * 24 + PREDICTION_HOUR + 1])
    warm_config = _write_config(work / "warm.cfg", load_unit="GW",
                                train_end=(first_cycle - DAY).isoformat(), test_end=first_cycle.isoformat())
    write_series_csv(work / "full.csv", rows)
    full_config = _write_config(work / "full.cfg", load_unit="GW", emit_quantiles="true",
                                train_end=first_cycle.isoformat(),
                                test_end=(first_cycle + cycle_days * DAY).isoformat())
    windows = []
    for k in range(cycle_days):
        day = first_cycle + k * DAY
        day_rows = through_next_prediction(warm_days + k)
        write_series_csv(work / f"day{k:04d}.csv", day_rows)
        config = _write_config(work / f"day{k:04d}.cfg", load_unit="GW", emit_quantiles="true",
                               train_end=day.isoformat(), test_end=(day + DAY).isoformat())
        windows.append((work / f"day{k:04d}.csv", config))
    return DailyInput(warm_csv=work / "warm.csv", warm_config=warm_config, full_csv=work / "full.csv",
                      full_config=full_config, windows=tuple(windows), window_rows=len(day_rows))
