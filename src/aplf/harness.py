"""Dataset ingestion, the rolling online learn/predict loop, and persistence.

The loop warms the learner over the training span, then for each test
day at the configured prediction time builds an instance from the latest
actual load and the encoded temperatures, predicts with the current
model, and only afterwards learns from that day's revealed loads. Model
snapshots are versioned, checksummed JSON documents that round-trip the
learner bit-identically.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from datetime import date, datetime, time, timedelta
from itertools import accumulate, pairwise, repeat
from pathlib import Path

# The snapshot checksum is CPython's built-in SHA-256: hashlib's loads OpenSSL's
# libcrypto, about 3.5 MiB of resident memory, for the same digest.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # an interpreter built without the module

from .features import TemperatureShiftEncoder, TemperatureTracker, calendar_type
from .forecaster import InstanceVector, predict
from .metrics import QUANTILE_LEVELS, QUANTILE_Z, EvalReport, evaluate_forecasts
from .model_types import (CALENDAR_TYPES, R_DIM, S_DIM, HyperParams, InputError, LearnerState, ModelParams,
                          _checked_list, _finite_floats, _ReadOnlyRecord, _Record)
from .recursive_learner import OnlineLearner

__all__ = [
    "CorruptSnapshot",
    "EmptySpan",
    "ForecastRows",
    "NonMonotoneTimestamps",
    "ParseError",
    "RunConfig",
    "RunResult",
    "Series",
    "ShapeMismatch",
    "Snapshot",
    "UnitMissing",
    "VersionMismatch",
    "ingest_csv",
    "load_config",
    "read_forecasts",
    "read_series",
    "run_online_evaluation",
    "snapshot_load",
    "snapshot_save",
]

SNAPSHOT_FORMAT = "aplf-snapshot"
SNAPSHOT_VERSION = 1

LOAD_UNITS = ("kW", "MW", "GW")

# The headers of a series CSV, each cell stripped.
_SERIES_HEADERS = (["timestamp", "load"], ["timestamp", "load", "temperature"])
# The forecasts.csv header, and the columns emit_quantiles appends to it.
_FORECAST_HEADER = "timestamp,horizon,mean,std"
_QUANTILE_COLUMNS = "," + ",".join(f"q{int(round(q * 100)):02d}" for q in QUANTILE_LEVELS)
# Characters of forecast rows per write of forecasts.csv.
_WRITE_CHUNK_CHARS = 256 * 1024
# About how many characters of whole lines read_series converts at a time.
_READ_BLOCK_CHARS = 16 * 1024


class ParseError(InputError):
    """Malformed input file; the message names the offending line."""


class NonMonotoneTimestamps(InputError):
    """Timestamps are not strictly increasing."""


class UnitMissing(InputError):
    """The configuration does not declare the load unit."""


class EmptySpan(InputError):
    """The requested evaluation span contains no prediction days."""


class VersionMismatch(InputError):
    """Snapshot written by an unsupported format version."""


class ShapeMismatch(InputError):
    """Snapshot dimensions or hyper-parameters do not match the configured model."""


class CorruptSnapshot(InputError):
    """Snapshot is unreadable or fails its checksum."""


class Series(_Record):
    """A series as read_series parsed it, in three parallel columns, one entry per row
    read: the row's step index i on the grid (its instant is start + i * step), its
    load and its temperature in deg F (None for a blank cell). len() is the number of
    rows read; start is the first row's instant, None when there is no row."""

    __slots__ = _fields = ("start", "step", "index", "load", "temperature")

    def __init__(self, start: datetime | None, step: timedelta, index: list[int], load: list[float | None],
                 temperature: list[float | None]):
        self.start, self.step, self.index, self.load, self.temperature = start, step, index, load, temperature

    def __len__(self) -> int:
        return len(self.index)


class RunConfig(_Record):
    """Run configuration; see load_config for the file keys. schedule is empty by default."""

    __slots__ = _fields = ("hp", "load_unit", "temperature_unit", "prediction_time", "train_end", "test_end",
                           "holidays", "init_mode", "emit_quantiles", "step", "schedule")

    def __init__(self, hp: HyperParams = HyperParams(), load_unit: str | None = None, temperature_unit: str = "F",
                 prediction_time: time = time(11, 0), train_end: datetime | None = None,
                 test_end: datetime | None = None, holidays: frozenset = frozenset(), init_mode: str = "zero",
                 emit_quantiles: bool = False, step: timedelta = timedelta(hours=1), schedule: dict | None = None):
        self.hp, self.load_unit, self.temperature_unit = hp, load_unit, temperature_unit
        self.prediction_time, self.train_end, self.test_end = prediction_time, train_end, test_end
        self.holidays, self.init_mode, self.emit_quantiles, self.step = holidays, init_mode, emit_quantiles, step
        self.schedule = {} if schedule is None else schedule


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _one_of(*choices: str):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}, got {raw!r}")
        return raw
    return parse


def _parse_step(raw: str) -> timedelta:
    minutes = int(raw)
    if minutes < 1:
        raise ValueError(f"must be at least 1, got {minutes}")
    return timedelta(minutes=minutes)


def _parse_holidays(raw: str) -> frozenset:
    return frozenset(date.fromisoformat(tok.strip()) for tok in raw.split(",") if tok.strip())


def _parse_time_of_day(raw: str) -> time:
    """A time of day, read in the data's own wall clock, so one with a UTC offset is refused."""
    at = time.fromisoformat(raw)
    if at.tzinfo is not None:
        raise ValueError(f"time of day {raw!r} has a UTC offset; give it in the data's own wall clock")
    return at


def _hyper_param(name: str, convert):
    """Parser for one HyperParams field, checked against the class's own bounds."""
    def parse(raw: str):
        value = convert(raw)
        HyperParams(**{name: value})  # every bound there concerns a single field
        return value
    return parse


# Config-file key -> (field name, parser). A parser raises ValueError on a
# bad value, and load_config adds the file and line to the message.
_HP_FIELDS = {name: (name, _hyper_param(name, type(getattr(HyperParams(), name)))) for name in HyperParams._fields}
_CONFIG_FIELDS = {
    "load_unit": ("load_unit", _one_of(*LOAD_UNITS)),
    "temperature_unit": ("temperature_unit", _one_of("F", "C")),
    "prediction_time": ("prediction_time", _parse_time_of_day),
    "train_end": ("train_end", datetime.fromisoformat),
    "test_end": ("test_end", datetime.fromisoformat),
    "holidays": ("holidays", _parse_holidays),
    "init_mode": ("init_mode", _one_of("zero", "batch")),
    "emit_quantiles": ("emit_quantiles", _parse_bool),
    "step_minutes": ("step", _parse_step),
    "schedule_file": ("schedule", lambda raw: _load_schedule(Path(raw))),
}


def load_config(path: Path | str) -> RunConfig:
    """Parse a flat `key = value` configuration file.

    Keys: lambda_s, lambda_r, w1, w2, w3, horizon, trace_reset_threshold,
    load_unit (kW|MW|GW), temperature_unit (F|C), prediction_time (HH:MM,
    no UTC offset), train_end / test_end (ISO-8601), holidays
    (comma-separated ISO dates), init_mode (zero|batch), emit_quantiles,
    step_minutes (at least 1), schedule_file. Any other key is a ParseError;
    the output directory is an argument of the run, not a key. Lines
    starting with # and blank lines are ignored. Every ParseError names its
    line. A config without load_unit parses; ingest_csv refuses it.
    """
    path = Path(path)
    hp_values: dict = {}
    config_values: dict = {}
    for where, line in _entries(path):
        if "=" not in line:
            raise ParseError(f"{where}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in _HP_FIELDS:
            values, (name, parse) = hp_values, _HP_FIELDS[key]
        elif key in _CONFIG_FIELDS:
            values, (name, parse) = config_values, _CONFIG_FIELDS[key]
        else:
            raise ParseError(f"{where}: unknown key {key!r}")
        if name in values:
            raise ParseError(f"{where}: duplicate key {key!r}")
        try:
            values[name] = parse(raw.strip())
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{where}: {key}: {exc}") from exc
    return RunConfig(hp=HyperParams(**hp_values), **config_values)


def _entries(path: Path):
    """(where, line) for each line of a key file that is neither blank nor a # comment:
    the line stripped, and the `path:lineno` that starts every ParseError about it. The
    file is read as UTF-8, less one leading byte-order mark."""
    for lineno, raw_line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw_line.strip()
        if line and not line.startswith("#"):
            yield f"{path}:{lineno}", line


def _load_schedule(path: Path) -> dict:
    """Per-day prediction overrides: lines `YYYY-MM-DD,HH:MM[,horizon]`, horizon >= 1, one per day."""
    schedule = {}
    for where, line in _entries(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise ParseError(f"{where}: expected 'date,time[,horizon]'")
        try:
            day = date.fromisoformat(parts[0])
            at = _parse_time_of_day(parts[1])
            horizon = _HP_FIELDS["horizon"][1](parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        if day in schedule:
            raise ParseError(f"{where}: duplicate day {day.isoformat()}")
        schedule[day] = (at, horizon)
    return schedule


def read_series(path: Path | str, config: RunConfig) -> Series:
    """Parse and validate a series CSV into a Series on the configured step grid.

    The header must be timestamp,load[,temperature], after at most one
    byte-order mark; timestamps must be strictly increasing on the step
    grid, and either all naive or all offset-aware. Missing steps are not
    errors. A load must be finite and >= 0, a temperature finite once
    temperatures declared in Celsius are converted to Fahrenheit here; a
    blank cell is missing. A ParseError names the file and the row's last
    line (a quoted field may span lines); so does one for a row the csv
    module cannot read, such as a field over csv.field_size_limit().
    """
    path = Path(path)
    series = None
    if path.is_file():  # the row reader opens the file again, which a pipe would not allow
        with path.open(encoding="utf-8-sig", newline="") as fh:
            series = _read_blocks(fh, config)
    return _read_rows(path, config) if series is None else series


def _read_blocks(fh, config: RunConfig) -> Series | None:
    """read_series column by column, a block of whole lines at a time; None, and the caller
    reads the file with _read_rows, once a block holds a quote, a NUL (an error for the csv
    module before Python 3.11), a lone CR, a line that may be over the csv field limit, a
    line of another width than the header, or a cell or step that _read_rows refuses."""
    step, limit, inf = config.step, csv.field_size_limit(), math.inf
    start = prev = None
    i = -1
    index: list[int] = []
    loads: list[float | None] = []
    temps: list[float | None] = []
    try:
        header = fh.readline().rstrip("\r\n")
        width = header.count(",") + 1
        if '"' in header or [h.strip() for h in header.split(",")] not in _SERIES_HEADERS:
            return None
        text = ""
        while True:
            chunk = fh.read(_READ_BLOCK_CHARS)
            text += chunk or "\n"  # the last line may lack its line end
            cut = text.rfind("\n") + 1
            block, text = text[:cut], text[cut:]
            n = block.count("\n")
            # Each line's last cell keeps its line end, which float and str.strip ignore.
            cells = block.replace("\n", "\n,").split(",")
            if len(cells) != width * n + 1:  # perhaps blank lines, which the csv module skips
                block = "".join(line + "\n" for line in block.split("\n") if line.strip("\r"))
                n, cells = block.count("\n"), block.replace("\n", "\n,").split(",")
            # The rows have the header's width only if every cell of the last column ends a line;
            # a CR not in a CRLF ends a line for the csv module.
            tail = "".join(cells[width - 1::width])
            if (max(len(block), len(text)) > limit or '"' in block or "\0" in block or len(cells) != width * n + 1
                    or tail.count("\n") != n or "\r" in block and block.count("\r") != tail.count("\r\n")):
                return None
            if n:
                stamps = list(map(datetime.fromisoformat, map(str.strip, cells[:-1:width])))
                load = _floats(cells[1::width])
                temp = _floats(cells[2::width]) if width == 3 else [None] * n
                if config.temperature_unit == "C":
                    temp = [None if r is None else r * 9.0 / 5.0 + 32.0 for r in temp]
                if not (-inf < sum(filter(None, load)) < inf and min(filter(None, load), default=0.0) >= 0.0
                        and -inf < sum(filter(None, temp)) < inf):
                    return None
                deltas = list(map(operator.sub, stamps, [prev or stamps[0], *stamps]))
                if prev is None:
                    start, deltas[0] = stamps[0], step
                if deltas.count(step) == n:
                    index += range(i + 1, i + 1 + n)
                else:
                    steps = list(map(operator.floordiv, deltas, repeat(step)))
                    if min(steps) < 1 or any(map(operator.mod, deltas, repeat(step))):
                        return None
                    steps[0] += i
                    index += accumulate(steps)
                i, prev = index[-1], stamps[-1]
                loads += load
                temps += temp
            if not chunk:
                return Series(start, step, index, loads, temps)
    except (ValueError, TypeError):
        return None


def _floats(column: list[str]) -> list[float | None]:
    """float of each cell, None for a blank one; ValueError for any other cell float refuses."""
    try:
        return list(map(float, column))
    except ValueError:
        return [float(c) if c.strip() else None for c in column]


def _read_rows(path: Path | str, config: RunConfig) -> Series:
    """read_series by the csv module, row by row: the reference reader, and the one that names errors."""
    path = Path(path)
    convert = config.temperature_unit == "C"
    step = config.step
    start = None
    index: list[int] = []
    loads: list[float | None] = []
    temps: list[float | None] = []
    add_index, add_load, add_temp, inf = index.append, loads.append, temps.append, math.inf
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}:1: empty file")
            header = [h.strip() for h in header]
            if header not in _SERIES_HEADERS:
                raise ParseError(f"{path}:1: header must be timestamp,load[,temperature], got {header}")
            has_temp = len(header) == 3
            prev_ts = None
            i = 0
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ParseError(f"{path}:{reader.line_num}: expected {len(header)} fields, got {len(row)}")
                try:
                    ts = datetime.fromisoformat(row[0].strip())
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: bad timestamp {row[0]!r}: {exc}") from exc
                try:
                    load = float(row[1])
                except ValueError as exc:
                    if row[1].strip():
                        raise ParseError(f"{path}:{reader.line_num}: bad load {row[1]!r}") from exc
                    load = None
                else:
                    if not 0.0 <= load < inf:
                        raise ParseError(f"{path}:{reader.line_num}: load must be finite and >= 0, got {load}")
                temp = None
                if has_temp:
                    try:
                        reading = float(row[2])
                    except ValueError as exc:
                        if row[2].strip():
                            raise ParseError(f"{path}:{reader.line_num}: bad temperature {row[2]!r}") from exc
                    else:
                        temp = reading * 9.0 / 5.0 + 32.0 if convert else reading
                        if not -inf < temp < inf:
                            # reading * 9.0 overflows for a Celsius reading above about
                            # 2e307 whose Fahrenheit value is finite; dividing first does not.
                            if convert:
                                temp = reading / 5.0 * 9.0 + 32.0
                            if not -inf < temp < inf:
                                raise ParseError(f"{path}:{reader.line_num}: temperature must be finite in degrees "
                                                 f"F, got {row[2].strip()} {config.temperature_unit}")
                if prev_ts is None:
                    start = ts
                else:
                    try:
                        delta = ts - prev_ts
                    except TypeError:
                        raise ParseError(f"{path}:{reader.line_num}: timestamp {ts.isoformat()} mixes naive and "
                                         f"offset-aware timestamps") from None
                    if delta == step:
                        i += 1
                    elif delta <= timedelta(0):
                        raise NonMonotoneTimestamps(f"{path}:{reader.line_num}: timestamp {ts.isoformat()} "
                                                    f"not after previous")
                    else:
                        steps, rem = divmod(delta, step)
                        if rem:
                            raise ParseError(f"{path}:{reader.line_num}: timestamp {ts.isoformat()} "
                                             f"off the {step} grid")
                        i += steps
                prev_ts = ts
                add_index(i)
                add_load(load)
                add_temp(temp)
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return Series(start, step, index, loads, temps)


def ingest_csv(path: Path | str, config: RunConfig) -> tuple[Series, list[dict]]:
    """read_series, plus the series' gaps: one {"after": instant, "missing_steps": n}
    per run of n missing grid steps, after the instant of the row before it.
    UnitMissing, before the file is read, unless the config declares load_unit."""
    if config.load_unit is None:
        raise UnitMissing("config does not declare load_unit")
    series = read_series(path, config)
    index = series.index
    if not index or index[-1] + 1 == len(index):
        return series, []
    start, step = series.start, series.step
    return series, [{"after": start + prev * step, "missing_steps": i - prev - 1}
                    for prev, i in pairwise(index) if i != prev + 1]


class Snapshot(_ReadOnlyRecord):
    """The learned state a snapshot file holds, and the cursor: the last anchor processed."""

    __slots__ = _fields = ("model", "state", "tracker", "hp", "cursor")

    def __init__(self, model: ModelParams, state: LearnerState, tracker: TemperatureTracker, hp: HyperParams,
                 cursor: datetime | None):
        for name, value in zip(self._fields, (model, state, tracker, hp, cursor)):
            object.__setattr__(self, name, value)


def _pending_to_dict(pending: dict) -> dict:
    return {
        f"{kind}:{c}": [[list(map(float, u)), float(s)] for u, s in buf]
        for (kind, c), buf in pending.items()
    }


def _pending_from_dict(d: dict) -> dict:
    if not isinstance(d, dict):
        raise ValueError(f"pending_batch must be an object, got {type(d).__name__}")
    out = {}
    for key, buf in d.items():
        kind, _, c = key.partition(":")
        c = int(c)
        if kind not in ("s", "r") or not 1 <= c <= CALENDAR_TYPES or key != f"{kind}:{c}":
            raise ValueError(f"pending_batch key {key!r} names no channel")
        k = S_DIM if kind == "s" else R_DIM
        vectors = [tuple(_finite_floats(u, k)) for u, _ in buf]
        loads = _finite_floats([s for _, s in buf], len(vectors))
        out[(kind, c)] = list(zip(vectors, loads))
    return out


# The layout snapshot_save writes: _HEAD, the payload's SHA-256 in hex,
# _MID, the payload, _TAIL.
_HEAD = '{"checksum":"'
_MID = f'","format":"{SNAPSHOT_FORMAT}","payload":'
_TAIL = f',"version":{SNAPSHOT_VERSION}}}'
_BODY_AT = len(_HEAD) + 64 + len(_MID)


def _as_written(text: str) -> dict | None:
    """The document, if text has snapshot_save's layout and its payload text hashes to its
    checksum; None otherwise. Only the payload text is parsed: the rest is fixed."""
    if not (text.startswith(_HEAD) and text.startswith(_MID, _BODY_AT - len(_MID)) and text.endswith(_TAIL)):
        return None
    checksum, body = text[len(_HEAD):_BODY_AT - len(_MID)], text[_BODY_AT:len(text) - len(_TAIL)]
    if sha256(body.encode()).hexdigest() != checksum:
        return None
    return {"checksum": checksum, "format": SNAPSHOT_FORMAT, "payload": json.loads(body),
            "version": SNAPSHOT_VERSION}


def snapshot_save(path: Path | str, snapshot: Snapshot) -> None:
    """Write a versioned, checksummed snapshot of the learned state, the state's pending
    batch-initialization buffers included: the record snapshot_load returns. ValueError,
    with no file written, unless every model, state and tracker list has CALENDAR_TYPES
    entries and every value is finite, as snapshot_load requires."""
    model, state, tracker, cursor = snapshot.model, snapshot.state, snapshot.tracker, snapshot.cursor
    lists = {"model.s_channels": model.s_channels, "model.r_channels": model.r_channels,
             "state.s_states": state.s_states, "state.r_states": state.r_states,
             "tracker.counts": tracker.counts, "tracker.sums": tracker.sums}
    for name, items in lists.items():
        if len(items) != CALENDAR_TYPES:
            raise ValueError(f"{name} has {len(items)} entries, not {CALENDAR_TYPES}")
    payload = {
        "n_calendar_types": CALENDAR_TYPES,
        "r_dim": R_DIM,
        "hyper_params": {**{name: getattr(snapshot.hp, name) for name in HyperParams._fields},
                         "n_calendar_types": CALENDAR_TYPES},
        "model": model.to_dict(),
        "state": state.to_dict(),
        "tracker": {"counts": tracker.counts, "sums": tracker.sums},
        "cursor": cursor.isoformat() if cursor is not None else None,
        "pending_batch": _pending_to_dict(state.pending),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    checksum = sha256(body.encode()).hexdigest()
    # The document is {"checksum", "format", "payload", "version"} in the
    # sorted, compact encoding; the payload's encoding is spliced in rather
    # than encoded a second time, and snapshot_load hashes it as written.
    _replace(Path(path), lambda partial: partial.write_text(f"{_HEAD}{checksum}{_MID}{body}{_TAIL}", encoding="utf-8"))


def _replace(path: Path, write: Callable[[Path], object]) -> None:
    """write(partial) to a file beside path, then rename it over path, so a write that
    fails partway leaves the file already at path as it was and no file beside it."""
    partial = path.with_name(path.name + ".tmp")
    try:
        write(partial)
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def snapshot_load(path: Path | str) -> Snapshot:
    """Load a snapshot, verifying version, checksum, and model dimensions.

    The checksum is the SHA-256 of the payload text as snapshot_save wrote
    it or, for a document another tool re-serialized, of the payload's
    canonical encoding. version must be the JSON integer 1, or
    VersionMismatch. n_calendar_types and hyper_params.n_calendar_types
    must be the JSON integer CALENDAR_TYPES (48), r_dim the JSON integer
    R_DIM (3), and cursor null or a non-empty ISO-8601 string.
    Every list and array in the payload must have the length or shape that
    CALENDAR_TYPES and the channel shapes give, and hold values a
    run can write: finite eta, sigma and gamma finite and >= 0, P symmetric
    positive definite, tracker counts integers >= 0, and finite tracker
    sums and pending samples. Each of those values must be a JSON number,
    not a string or boolean; an integer too large for a float is refused.
    Otherwise CorruptSnapshot.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
        doc = _as_written(text)
        checked = doc is not None
        if not checked:
            doc = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CorruptSnapshot(f"{path}: not a parseable snapshot: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise CorruptSnapshot(f"{path}: missing snapshot format marker")
    version = doc.get("version")
    if type(version) is not int or version != SNAPSHOT_VERSION:
        raise VersionMismatch(f"{path}: snapshot version {version!r}, expected {SNAPSHOT_VERSION}")
    payload = doc.get("payload")
    if payload is None or "checksum" not in doc:
        raise CorruptSnapshot(f"{path}: missing payload or checksum")
    if not checked:
        body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if sha256(body.encode()).hexdigest() != doc["checksum"]:
            raise CorruptSnapshot(f"{path}: checksum mismatch")
    try:
        hp_values, cursor = {**payload["hyper_params"]}, payload["cursor"]
        constants = {"n_calendar_types": (payload["n_calendar_types"], CALENDAR_TYPES),
                     "hyper_params.n_calendar_types": (hp_values.pop("n_calendar_types"), CALENDAR_TYPES),
                     "r_dim": (payload["r_dim"], R_DIM)}
        for name, (value, expected) in constants.items():
            if not (type(value) is int and value == expected):
                raise ValueError(f"{name} must be the integer {expected}, got {value!r}")
        if hp_values.keys() != {*HyperParams._fields}:
            raise ValueError(f"hyper_params keys missing or extra: {sorted(hp_values.keys() ^ {*HyperParams._fields})}")
        if bool in map(type, hp_values.values()) or type(hp_values["horizon"]) is not int:
            raise ValueError(f"hyper_params must be JSON numbers, not booleans, and horizon an integer: {hp_values}")
        model = ModelParams.from_dict(payload["model"])
        state = LearnerState.from_dict(payload["state"])
        counts = _checked_list(payload["tracker"]["counts"], CALENDAR_TYPES)
        if not all(type(v) is int and v >= 0 for v in counts):
            raise ValueError("tracker counts must be integers >= 0")
        sums = _finite_floats(payload["tracker"]["sums"], CALENDAR_TYPES)
        hp = HyperParams(**hp_values)
        if cursor is not None:
            if type(cursor) is not str or not cursor:
                raise ValueError(f"cursor must be null or a non-empty ISO-8601 string, got {cursor!r}")
            cursor = datetime.fromisoformat(cursor)
        state.pending = _pending_from_dict(payload.get("pending_batch", {}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptSnapshot(f"{path}: malformed payload: {exc}") from exc
    return Snapshot(model=model, state=state, tracker=TemperatureTracker(counts, sums), hp=hp, cursor=cursor)


class ForecastRows(Sequence[str]):
    """forecasts.csv's data rows, kept as typed columns and formatted when read.

    Each anchor keeps its step index t and the position of its first row;
    each row keeps its mean and std (array('d')), 16 bytes a row. The anchor's
    row h (h = 1, 2, ...) is stamped start + (t + h) * step in the data's wall
    clock, followed by the data's UTC offset, as isoformat writes it: every
    offset-aware timestamp read_series returns has a fixed-offset timezone, so
    this suffix is the same on every row. Iteration and slices format each row
    once; an index formats its one row. The rows hold no reference to the
    series or its grid.
    """

    __slots__ = ("_start", "_step", "_suffix", "_quantiles", "_anchor_t", "_first", "_mean", "_std")

    def __init__(self, start: datetime, step: timedelta, quantiles: bool):
        self._start = start.replace(tzinfo=None)
        self._step = step
        self._suffix = start.isoformat()[len(self._start.isoformat()):]
        self._quantiles = quantiles
        self._anchor_t, self._first = array("q"), array("q")
        self._mean, self._std = array("d"), array("d")

    @property
    def header(self) -> str:
        """forecasts.csv's header line, with the quantile columns when the rows carry them."""
        return _FORECAST_HEADER + (_QUANTILE_COLUMNS if self._quantiles else "")

    def add(self, t: int, means: Sequence[float], stds: Sequence[float]) -> None:
        """Append the rows of the anchor at step index t: one per horizon step of its forecast."""
        self._anchor_t.append(t)
        self._first.append(len(self._mean))
        self._mean.extend(means)
        self._std.extend(stds)

    def __len__(self) -> int:
        return len(self._mean)

    def __iter__(self) -> Iterator[str]:
        return self._format(0, len(self))

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, stride = key.indices(len(self))
            if stride == 1:
                return list(self._format(lo, hi))
            return [self[k] for k in range(lo, hi, stride)]
        k = operator.index(key)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("forecast row index out of range")
        return next(self._format(k, k + 1))

    def _format(self, lo: int, hi: int) -> Iterator[str]:
        """Rows lo through hi - 1. Stamps are stepped by addition, equal to the product. A
        stamp is its day's date prefix, formatted when the day changes, and its time of
        day's text with the suffix, formatted once per call for each time of day."""
        anchor_t, first, means, stds = self._anchor_t, self._first, self._mean, self._std
        start, step, suffix, quantiles = self._start, self._step, self._suffix, self._quantiles
        stamp_day, day_prefix = None, ""
        clock: dict[time, str] = {}
        a = bisect_right(first, lo) - 1
        while lo < hi:
            stop = min(hi, first[a + 1] if a + 1 < len(first) else len(means))
            h = lo - first[a]
            ts = start + (anchor_t[a] + h) * step
            for mean, std in zip(means[lo:stop], stds[lo:stop]):
                h += 1
                ts += step
                if ts.date() != stamp_day:
                    stamp_day = ts.date()
                    day_prefix = stamp_day.isoformat() + "T"
                clock_text = clock.get(ts.time())
                if clock_text is None:
                    clock_text = clock[ts.time()] = ts.time().isoformat() + suffix
                row = f"{day_prefix}{clock_text},{h},{mean!r},{std!r}"
                if quantiles:
                    row += "," + ",".join([repr(mean + std * z) for z in QUANTILE_Z])
                yield row
            lo, a = stop, a + 1


class RunResult(_Record):
    """A run's report, forecast rows and notes, and its evaluated steps as parallel
    typed columns: step index t (array('q')), actual load, and the forecast's mean
    and std (array('d')). forecast_header is the forecast rows' header line."""

    __slots__ = _fields = ("report", "forecast_rows", "t", "actual", "mean", "std", "notes")

    def __init__(self, report: EvalReport | None, forecast_rows: ForecastRows, t: array, actual: array, mean: array,
                 std: array, notes: dict):
        self.report, self.forecast_rows, self.t, self.actual = report, forecast_rows, t, actual
        self.mean, self.std, self.notes = mean, std, notes

    @property
    def forecast_header(self) -> str:
        return self.forecast_rows.header

    def lines(self) -> list[str]:
        """report.txt's lines: the report's, if there is a report, then each note as `key = value`."""
        lines = [] if self.report is None else self.report.lines()
        return lines + [f"{key} = {value}" for key, value in self.notes.items()]


def run_online_evaluation(series: Series, config: RunConfig, *,
                          frozen_after: datetime | None = None,
                          resume: Path | str | None = None,
                          snapshot_out: Path | str | None = None,
                          output_dir: Path | str | None = None,
                          gaps: list | None = None) -> RunResult:
    """Run the rolling learn/predict loop and evaluate the test span.

    The series' own grid (start, step) is the run's grid. Warm-up anchors
    (before train_end) only learn; test anchors predict with the latest
    model first and learn from the revealed loads after. Each anchor
    learns the steps through the next day's prediction instant.
    With frozen_after set, learning stops at that instant (offline-style
    ablation). Forecast rows are emitted for every predicted step; the
    evaluation pools every horizon step that has an actual load.
    train_end, test_end, frozen_after and a resumed cursor that are naive
    where the data's timestamps are offset-aware, or the reverse, raise
    ParseError. So do temperatures of one calendar type whose sum in the
    tracker overflows the float range, before any file is written, and
    forecasts that reach past datetime.max, before the loop starts.
    gaps is unused: the run counts the series' missing steps itself.
    """
    if not series:
        raise EmptySpan("no rows")
    if config.train_end is None:
        raise ParseError("config must set train_end for a run")
    hp = config.hp
    base, step = series.start, series.step
    last_ts = base + series.index[-1] * step
    _check_comparable("train_end", config.train_end, base)
    _check_comparable("test_end", config.test_end, base)
    _check_comparable("frozen_after", frozen_after, base)
    if not base <= config.train_end <= last_ts:
        raise ParseError("train_end must lie inside the data span")

    # One anchor per day before test_end (the split boundary: resumed runs
    # continue from there): its instant, its step index, its horizon and the
    # step of the next day's prediction instant, through which it learns.
    # That day may lie past test_end or the data, so a split run learns what
    # the single run learns.
    test_end = config.test_end

    def instant(day: date) -> tuple[datetime, int | None]:
        at, horizon = config.schedule.get(day, (config.prediction_time, None))
        return datetime.combine(day, at, tzinfo=base.tzinfo), horizon

    # The last step of the grid whose instant a datetime can hold. The day
    # after date.max has no prediction instant, and comes after every such step.
    last_step = (datetime.max - base.replace(tzinfo=None)) // step
    anchors: list[tuple[datetime, int, int, int]] = []
    for day in map(date.fromordinal, range(base.toordinal(), last_ts.toordinal() + 1)):
        ts, horizon = instant(day)
        if base <= ts <= last_ts:
            t_idx, rem = divmod(ts - base, step)
            if rem:
                raise ParseError(f"prediction time {ts.isoformat()} off the {step} grid")
            if test_end is None or ts < test_end:
                t_next = (instant(day + timedelta(days=1))[0] - base) // step if day < date.max else last_step + 1
                anchors.append((ts, t_idx, horizon or hp.horizon, t_next))
    if not any(config.train_end <= ts for ts, _, _, _ in anchors):
        raise EmptySpan("no prediction days inside the test span")

    # The series on its step grid, from the first row through the last row
    # or the last step any anchor predicts, whichever is later.
    n_steps = max(series.index[-1], max(t + h for _, t, h, _ in anchors)) + 1
    if n_steps > last_step + 1:
        ts = next(ts for ts, t, h, _ in anchors if t + h > last_step)
        raise ParseError(f"prediction day {ts.isoformat()} spans steps past {datetime.max.isoformat()}, the last "
                         f"instant a timestamp can hold; the first is the step after "
                         f"{(base + last_step * step).isoformat()}")
    loads: list[float | None] = [None] * n_steps
    temps: list[float | None] = [None] * n_steps
    for i, load, temp in zip(series.index, series.load, series.temperature):
        loads[i] = load
        temps[i] = temp
    # The grid's instants are stepped by addition, equal to base + i * step
    # for every i and cheaper than the product.
    holidays = config.holidays
    types = [calendar_type(ts, holidays) for ts in accumulate(repeat(step, n_steps - 1), initial=base)]

    encoder = TemperatureShiftEncoder(hp)
    if resume is None:
        learner = OnlineLearner(hp, config.init_mode)
        tracker = TemperatureTracker()
        cursor = None
    else:
        snap = snapshot_load(resume)
        differ = [k for k in HyperParams._fields if getattr(snap.hp, k) != getattr(hp, k)]
        if differ:
            raise ShapeMismatch(f"{resume}: snapshot hyper-parameters differ from the config: "
                                f"{', '.join(differ)}")
        _check_comparable(f"{resume}: snapshot cursor", snap.cursor, base)
        if snap.cursor is not None and not any(config.train_end <= ts and snap.cursor < ts for ts, *_ in anchors):
            raise EmptySpan(f"{resume}: no prediction day after the snapshot's cursor {snap.cursor.isoformat()}")
        learner = OnlineLearner(hp, config.init_mode, model=snap.model, state=snap.state)
        tracker, cursor = snap.tracker, snap.cursor

    forecast_rows = ForecastRows(base, step, config.emit_quantiles)
    eval_t, eval_actual, eval_mean, eval_std = array("q"), array("d"), array("d"), array("d")
    skipped_days = 0
    cold_starts = 0
    processed = cursor
    train_end = config.train_end
    # An anchor forecasts the horizon steps after it and learns the steps on
    # the grid through the next anchor, so each step is learned once, after
    # every forecast of it. Each temperature of the two spans is encoded once,
    # and the tracker learns it only once its step is learned.
    add_rows, add_t, add_actual, add_mean, add_std = (forecast_rows.add, eval_t.append, eval_actual.append,
                                                      eval_mean.append, eval_std.append)

    for anchor_ts, t_idx, horizon, t_next in anchors:
        if cursor is not None and anchor_ts <= cursor:
            continue
        anchor_load = loads[t_idx]
        span = slice(t_idx + 1, max(t_idx + horizon, t_next) + 1)
        span_loads, span_types, span_temps = loads[span], types[span], temps[span]
        observations = tracker.observations(encoder, span_types, span_temps)

        if train_end <= anchor_ts:
            if anchor_load is None:
                skipped_days += 1
            else:
                instance = InstanceVector(anchor_load, tuple(observations[:horizon]), span_types[:horizon], t_idx)
                path = predict(learner.model, instance, state=learner.state)
                cold_starts += len(path.cold_start_substitutions)
                add_rows(t_idx, path.mean, path.std)
                for i, (mean, std, actual) in enumerate(zip(path.mean, path.std, span_loads), start=1):
                    if actual is not None:
                        add_t(t_idx + i)
                        add_actual(actual)
                        add_mean(mean)
                        add_std(std)

        if frozen_after is None or anchor_ts < frozen_after:
            learned = t_next - t_idx
            learn_types = span_types[:learned]
            learner.learn_step(InstanceVector(anchor_load, tuple(observations[:learned]), learn_types, t_idx),
                               span_loads[:learned])
            tracker.learn(learn_types, span_temps[:learned])
        processed = anchor_ts

    # A non-finite sum stays non-finite, so one check after the loop catches
    # every overflow, before any file is written.
    for c, total in enumerate(tracker.sums, start=1):
        if not -math.inf < total < math.inf:
            raise ParseError(f"the temperatures of calendar type {c} sum to {total}, beyond the float range")
    report = evaluate_forecasts(eval_actual, eval_mean, eval_std) if eval_actual else None
    max_slope = max(abs(float(p.eta[1])) for p in learner.model.s_channels)
    notes = {
        "load_unit": config.load_unit,
        "n_forecast_rows": len(forecast_rows),
        "n_eval_points": len(eval_actual),
        "skipped_days": skipped_days,
        "cold_start_substitutions": cold_starts,
        **{name: getattr(learner.diagnostics, name) for name in learner.diagnostics._fields},
        "max_abs_transition_slope": max_slope,
        "n_gap_steps": series.index[-1] + 1 - len(series),
    }

    result = RunResult(report=report, forecast_rows=forecast_rows, t=eval_t, actual=eval_actual,
                       mean=eval_mean, std=eval_std, notes=notes)
    # The outputs come first: a snapshot whose cursor is past days whose
    # forecasts were never written would make a resumed run skip them.
    if output_dir is not None:
        _write_outputs(Path(output_dir), result)
    if snapshot_out is not None:
        snapshot_save(snapshot_out, Snapshot(learner.model, learner.state, tracker, hp, processed))
    return result


def _check_comparable(name: str, value: datetime | None, base: datetime) -> None:
    """ParseError naming the setting unless value is None or, like the data's first
    timestamp base, naive or offset-aware."""
    if value is not None and (value.utcoffset() is None) != (base.utcoffset() is None):
        kind, data_kind = ("naive", "offset-aware") if value.utcoffset() is None else ("offset-aware", "naive")
        raise ParseError(f"{name} {value.isoformat()} is {kind}, but the data timestamps are {data_kind}")


def _write_outputs(output_dir: Path, result: RunResult) -> None:
    """Write forecasts.csv, report.txt and calibration.csv. forecasts.csv is written
    beside its path and renamed over it, so that a write that fails partway never
    leaves a truncated file for `aplf metrics` to score."""
    output_dir.mkdir(parents=True, exist_ok=True)

    def write_forecasts(partial: Path) -> None:
        # Each row is formatted here, once, and written in chunks of about
        # _WRITE_CHUNK_CHARS, so that no copy of the whole file is built. A
        # chunk's empty last item ends its last row without copying the chunk.
        with partial.open("w", encoding="utf-8") as fh:
            fh.write(result.forecast_header + "\n")
            chunk, size = [], 0
            for row in result.forecast_rows:
                chunk.append(row)
                size += len(row)
                if size >= _WRITE_CHUNK_CHARS:
                    chunk.append("")
                    fh.write("\n".join(chunk))
                    chunk, size = [], 0
            chunk.append("")
            fh.write("\n".join(chunk))

    _replace(output_dir / "forecasts.csv", write_forecasts)
    (output_dir / "report.txt").write_text("".join(line + "\n" for line in result.lines()), encoding="utf-8")
    cal_lines = ["q,coverage"]
    if result.report is not None:
        cal_lines += [f"{q!r},{c!r}" for q, c in result.report.calibration_curve]
    (output_dir / "calibration.csv").write_text("".join(line + "\n" for line in cal_lines), encoding="utf-8")


def read_forecasts(path: Path | str) -> Iterator[tuple[datetime, float, float]]:
    """Yield every (timestamp, mean, std) row of a forecasts.csv, in file order.

    The header must start with the columns run_online_evaluation writes, after at most one
    byte-order mark. A row whose mean or std is not finite, or whose std is negative, and a
    row the csv module cannot read, are ParseErrors naming the row's last line (a quoted
    field may span lines), raised when iteration reaches it.
    """
    path = Path(path)
    columns = _FORECAST_HEADER.split(",")
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or header[:len(columns)] != columns:
                raise ParseError(f"{path}:1: expected forecasts.csv header {_FORECAST_HEADER}")
            for row in reader:
                if not row:
                    continue
                try:
                    ts, mean, std = datetime.fromisoformat(row[0]), float(row[2]), float(row[3])
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{path}:{reader.line_num}: {exc}") from exc
                if not (math.isfinite(mean) and math.isfinite(std) and std >= 0.0):
                    raise ParseError(f"{path}:{reader.line_num}: mean must be finite and std finite "
                                     f"and >= 0, got mean {row[2]}, std {row[3]}")
                yield ts, mean, std
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
