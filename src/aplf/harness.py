"""Dataset ingestion, the rolling online learn/predict loop, and persistence.

The loop warms the learner over the training span, then for each test
day at the configured prediction time builds an instance from the latest
actual load and the recorded temperatures, predicts with the current
model, and only afterwards learns from that day's revealed loads. Model
snapshots are versioned, checksummed JSON documents that round-trip the
learner bit-identically.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np

from .features import CALENDAR_TYPES, ObservationVector, TemperatureShiftEncoder, TemperatureTracker, calendar_type
from .forecaster import InstanceVector, predict, standard_normal_quantile
from .metrics import EvalReport, evaluate_forecasts, quantile_grid
from .model_types import S_DIM, HyperParams, LearnerState, ModelParams, _checked_array, _checked_list
from .recursive_learner import OnlineLearner

__all__ = [
    "CorruptSnapshot",
    "EmptySpan",
    "NonMonotoneTimestamps",
    "ParseError",
    "RunConfig",
    "RunResult",
    "SeriesRecord",
    "ShapeMismatch",
    "Snapshot",
    "UnitMissing",
    "VersionMismatch",
    "ingest_csv",
    "load_config",
    "run_online_evaluation",
    "snapshot_load",
    "snapshot_save",
]

SNAPSHOT_FORMAT = "aplf-snapshot"
SNAPSHOT_VERSION = 1

LOAD_UNITS = ("kW", "MW", "GW")


class ParseError(Exception):
    """Malformed input file; the message names the offending line."""


class NonMonotoneTimestamps(Exception):
    """Timestamps are not strictly increasing."""


class UnitMissing(Exception):
    """The configuration does not declare the load unit."""


class EmptySpan(Exception):
    """The requested evaluation span contains no prediction days."""


class VersionMismatch(Exception):
    """Snapshot written by an unsupported format version."""


class ShapeMismatch(Exception):
    """Snapshot dimensions do not match the configured model."""


class CorruptSnapshot(Exception):
    """Snapshot is unreadable or fails its checksum."""


@dataclass(frozen=True)
class SeriesRecord:
    """One observation: timestamp, load (None for a gap row), temperature in deg F."""

    timestamp: datetime
    load: float | None
    temperature: float | None


@dataclass
class RunConfig:
    """Run configuration; see load_config for the file keys."""

    hp: HyperParams = field(default_factory=HyperParams)
    load_unit: str | None = None
    temperature_unit: str = "F"
    prediction_time: time = time(11, 0)
    train_end: datetime | None = None
    test_end: datetime | None = None
    holidays: frozenset = frozenset()
    init_mode: str = "zero"
    emit_quantiles: bool = False
    step: timedelta = timedelta(hours=1)
    schedule: dict = field(default_factory=dict)
    output_dir: Path | None = None


_CONFIG_KEYS = (
    "lambda_s", "lambda_r", "w1", "w2", "w3", "calendar_types", "horizon",
    "trace_reset_threshold", "load_unit", "temperature_unit", "prediction_time",
    "train_end", "test_end", "holidays", "init_mode", "emit_quantiles",
    "step_minutes", "schedule_file", "output_dir",
)


def _parse_bool(raw: str, lineno: int, path) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ParseError(f"{path}:{lineno}: expected a boolean, got {raw!r}")


def load_config(path: Path | str) -> RunConfig:
    """Parse a flat `key = value` configuration file.

    Keys: lambda_s, lambda_r, w1, w2, w3, calendar_types, horizon,
    trace_reset_threshold, load_unit (kW|MW|GW), temperature_unit (F|C),
    prediction_time (HH:MM), train_end / test_end (ISO-8601), holidays
    (comma-separated ISO dates), init_mode (zero|batch), emit_quantiles,
    step_minutes, schedule_file, output_dir. Lines starting with # and
    blank lines are ignored.
    """
    path = Path(path)
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = raw

    def _float(key, default):
        return float(values[key]) if key in values else default

    def _int(key, default):
        return int(values[key]) if key in values else default

    try:
        hp = HyperParams(
            lambda_s=_float("lambda_s", 0.2),
            lambda_r=_float("lambda_r", 0.7),
            w1=_float("w1", 20.0),
            w2=_float("w2", 80.0),
            w3=_float("w3", 20.0),
            n_calendar_types=_int("calendar_types", 48),
            horizon=_int("horizon", 24),
            trace_reset_threshold=_float("trace_reset_threshold", 10.0),
        )
        config = RunConfig(hp=hp)
        if "load_unit" in values:
            if values["load_unit"] not in LOAD_UNITS:
                raise ParseError(f"{path}: load_unit must be one of {LOAD_UNITS}")
            config.load_unit = values["load_unit"]
        if "temperature_unit" in values:
            if values["temperature_unit"] not in ("F", "C"):
                raise ParseError(f"{path}: temperature_unit must be F or C")
            config.temperature_unit = values["temperature_unit"]
        if "prediction_time" in values:
            config.prediction_time = time.fromisoformat(values["prediction_time"])
        if "train_end" in values:
            config.train_end = datetime.fromisoformat(values["train_end"])
        if "test_end" in values:
            config.test_end = datetime.fromisoformat(values["test_end"])
        if "holidays" in values and values["holidays"]:
            config.holidays = frozenset(
                date.fromisoformat(tok.strip()) for tok in values["holidays"].split(",") if tok.strip()
            )
        if "init_mode" in values:
            if values["init_mode"] not in ("zero", "batch"):
                raise ParseError(f"{path}: init_mode must be zero or batch")
            config.init_mode = values["init_mode"]
        if "emit_quantiles" in values:
            config.emit_quantiles = _parse_bool(values["emit_quantiles"], 0, path)
        if "step_minutes" in values:
            config.step = timedelta(minutes=int(values["step_minutes"]))
        if "output_dir" in values:
            config.output_dir = Path(values["output_dir"])
        if "schedule_file" in values:
            config.schedule = _load_schedule(Path(values["schedule_file"]))
    except ParseError:
        raise
    except (ValueError, KeyError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return config


def _load_schedule(path: Path) -> dict:
    """Per-day prediction overrides: lines `YYYY-MM-DD,HH:MM[,horizon]`."""
    schedule = {}
    for lineno, raw_line in enumerate(path.read_text().splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (2, 3):
            raise ParseError(f"{path}:{lineno}: expected 'date,time[,horizon]'")
        try:
            day = date.fromisoformat(parts[0])
            at = time.fromisoformat(parts[1])
            horizon = int(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        schedule[day] = (at, horizon)
    return schedule


def _c_to_f(value: float) -> float:
    return value * 9.0 / 5.0 + 32.0


def ingest_csv(path: Path | str, config: RunConfig):
    """Parse and validate a series CSV; returns (records, gap_report).

    The header must be timestamp,load[,temperature]; timestamps must be
    strictly increasing on the configured step grid. Missing steps are
    reported as gaps, not errors. Temperatures declared in Celsius are
    converted to Fahrenheit here.
    """
    if config.load_unit is None:
        raise UnitMissing("config does not declare load_unit")
    path = Path(path)
    records: list[SeriesRecord] = []
    gaps: list[dict] = []
    convert = config.temperature_unit == "C"
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}:1: empty file") from None
        header = [h.strip() for h in header]
        if header not in (["timestamp", "load"], ["timestamp", "load", "temperature"]):
            raise ParseError(f"{path}:1: header must be timestamp,load[,temperature], got {header}")
        has_temp = len(header) == 3
        prev_ts = None
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                ts = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad timestamp {row[0]!r}: {exc}") from exc
            load_field = row[1].strip()
            if load_field == "":
                load = None
            else:
                try:
                    load = float(load_field)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad load {row[1]!r}") from exc
                if not np.isfinite(load) or load < 0:
                    raise ParseError(f"{path}:{lineno}: load must be finite and >= 0, got {load}")
            temp = None
            if has_temp:
                temp_field = row[2].strip()
                if temp_field != "":
                    try:
                        temp = float(temp_field)
                    except ValueError as exc:
                        raise ParseError(f"{path}:{lineno}: bad temperature {row[2]!r}") from exc
                    if convert:
                        temp = _c_to_f(temp)
            if prev_ts is not None:
                delta = ts - prev_ts
                if delta <= timedelta(0):
                    raise NonMonotoneTimestamps(f"{path}:{lineno}: timestamp {ts.isoformat()} not after previous")
                steps, rem = divmod(delta, config.step)
                if rem:
                    raise ParseError(f"{path}:{lineno}: timestamp {ts.isoformat()} off the {config.step} grid")
                if steps > 1:
                    gaps.append({"after": prev_ts, "missing_steps": int(steps) - 1})
            prev_ts = ts
            records.append(SeriesRecord(timestamp=ts, load=load, temperature=temp))
    return records, gaps


@dataclass(frozen=True)
class Snapshot:
    model: ModelParams
    state: LearnerState
    tracker: TemperatureTracker
    hp: HyperParams
    cursor: datetime | None
    pending: dict


def _pending_to_dict(pending: dict) -> dict:
    return {
        f"{kind}:{c}": [[list(map(float, u)), float(s)] for u, s in buf]
        for (kind, c), buf in pending.items()
    }


def _pending_from_dict(d: dict, n_calendar_types: int, r_dim: int) -> dict:
    out = {}
    for key, buf in d.items():
        kind, _, c = key.partition(":")
        c = int(c)
        if kind not in ("s", "r") or not 1 <= c <= n_calendar_types:
            raise ValueError(f"pending_batch key {key!r} names no channel")
        shape = (S_DIM,) if kind == "s" else (r_dim,)
        out[(kind, c)] = [(_checked_array(u, shape), float(s)) for u, s in buf]
    return out


def snapshot_save(path: Path | str, model: ModelParams, state: LearnerState,
                  tracker: TemperatureTracker, hp: HyperParams, *,
                  cursor: datetime | None = None, pending: dict | None = None) -> None:
    """Write a versioned, checksummed snapshot of the learner."""
    payload = {
        "n_calendar_types": model.n_calendar_types,
        "r_dim": model.r_dim,
        "hyper_params": asdict(hp),
        "model": model.to_dict(),
        "state": state.to_dict(),
        "tracker": {"counts": tracker.counts, "sums": tracker.sums},
        "cursor": cursor.isoformat() if cursor is not None else None,
        "pending_batch": _pending_to_dict(pending or {}),
    }
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    doc = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
        "payload": payload,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def snapshot_load(path: Path | str, *, expect_calendar_types: int | None = None,
                  expect_r_dim: int | None = None) -> Snapshot:
    """Load a snapshot, verifying version, checksum, and model dimensions.

    Every list and array in the payload must have the length or shape its
    own n_calendar_types and r_dim declare; otherwise CorruptSnapshot.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptSnapshot(f"{path}: not a parseable snapshot: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise CorruptSnapshot(f"{path}: missing snapshot format marker")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise VersionMismatch(f"{path}: snapshot version {doc.get('version')!r}, expected {SNAPSHOT_VERSION}")
    payload = doc.get("payload")
    if payload is None or "checksum" not in doc:
        raise CorruptSnapshot(f"{path}: missing payload or checksum")
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(body.encode()).hexdigest() != doc["checksum"]:
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    try:
        n_c = int(payload["n_calendar_types"])
        r_dim = int(payload["r_dim"])
        if expect_calendar_types is not None and n_c != expect_calendar_types:
            raise ShapeMismatch(f"{path}: snapshot has {n_c} calendar types, config expects {expect_calendar_types}")
        if expect_r_dim is not None and r_dim != expect_r_dim:
            raise ShapeMismatch(f"{path}: snapshot has r_dim {r_dim}, config expects {expect_r_dim}")
        model = ModelParams.from_dict(payload["model"], n_c, r_dim)
        state = LearnerState.from_dict(payload["state"], n_c, r_dim)
        tracker = TemperatureTracker(n_c)
        tracker.counts = [int(v) for v in _checked_list(payload["tracker"]["counts"], n_c)]
        tracker.sums = [float(v) for v in _checked_list(payload["tracker"]["sums"], n_c)]
        hp = HyperParams(**payload["hyper_params"])
        cursor = datetime.fromisoformat(payload["cursor"]) if payload["cursor"] else None
        pending = _pending_from_dict(payload.get("pending_batch", {}), n_c, r_dim)
    except ShapeMismatch:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptSnapshot(f"{path}: malformed payload: {exc}") from exc
    return Snapshot(model=model, state=state, tracker=tracker, hp=hp, cursor=cursor, pending=pending)


@dataclass
class RunResult:
    report: EvalReport | None
    forecast_rows: list[str]
    eval_samples: list
    notes: dict
    forecast_header: str


def _format_float(x: float) -> str:
    return repr(float(x))


def run_online_evaluation(records: list[SeriesRecord], config: RunConfig, *,
                          frozen_after: datetime | None = None,
                          resume: Path | str | None = None,
                          snapshot_out: Path | str | None = None,
                          output_dir: Path | str | None = None,
                          gaps: list | None = None) -> RunResult:
    """Run the rolling learn/predict loop and evaluate the test span.

    Warm-up anchors (before train_end) only learn; test anchors predict
    with the latest model first and learn from the revealed loads after.
    With frozen_after set, learning stops at that instant (offline-style
    ablation). Forecast rows are emitted for every predicted step; the
    evaluation pools every horizon step that has an actual load.
    """
    if not records:
        raise EmptySpan("no records")
    if config.train_end is None:
        raise ParseError("config must set train_end for a run")
    hp = config.hp
    if hp.n_calendar_types != CALENDAR_TYPES:
        raise ParseError(f"the built-in calendar mapping requires calendar_types = {CALENDAR_TYPES}")
    base = records[0].timestamp
    last_ts = records[-1].timestamp
    if not base <= config.train_end <= last_ts:
        raise ParseError("train_end must lie inside the data span")
    step = config.step
    by_ts = {r.timestamp: r for r in records}

    def ts_of(i: int) -> datetime:
        return base + i * step

    def index_of(ts: datetime) -> int:
        quot, rem = divmod(ts - base, step)
        if rem:
            raise ParseError(f"prediction time {ts.isoformat()} off the {step} grid")
        return int(quot)

    holidays = config.holidays

    def cal(i: int) -> int:
        return calendar_type(ts_of(i), holidays)

    encoder = TemperatureShiftEncoder(hp)
    learner = OnlineLearner(hp, encoder=encoder, calendar_fn=cal, init_mode=config.init_mode)
    cursor = None
    if resume is not None:
        snap = snapshot_load(resume, expect_calendar_types=hp.n_calendar_types,
                             expect_r_dim=encoder.r_dim)
        learner.restore(snap.model, snap.state, snap.tracker, snap.pending)
        cursor = snap.cursor

    test_end = config.test_end
    anchors: list[datetime] = []
    day = base.date()
    while day <= last_ts.date():
        at, horizon_override = config.schedule.get(day, (config.prediction_time, None))
        ts = datetime.combine(day, at, tzinfo=base.tzinfo)
        if base <= ts <= last_ts:
            if (ts - base) % step != timedelta(0):
                raise ParseError(f"prediction time {ts.isoformat()} off the {step} grid")
            anchors.append(ts)
        day += timedelta(days=1)
    test_anchors = [a for a in anchors
                    if config.train_end <= a and (test_end is None or a < test_end)]
    if not test_anchors:
        raise EmptySpan("no prediction days inside the test span")

    q_grid = quantile_grid()
    z_grid = [standard_normal_quantile(q) for q in q_grid] if config.emit_quantiles else None
    header = "timestamp,horizon,mean,std"
    if config.emit_quantiles:
        header += "," + ",".join(f"q{int(round(q * 100)):02d}" for q in q_grid)

    forecast_rows: list[str] = []
    eval_samples: list = []
    skipped_days = 0
    cold_starts = 0
    processed = cursor

    for anchor_ts in anchors:
        if test_end is not None and anchor_ts >= test_end:
            break  # the split boundary: resumed runs continue from here
        if cursor is not None and anchor_ts <= cursor:
            continue
        _, horizon_override = config.schedule.get(anchor_ts.date(), (None, None))
        horizon = horizon_override or hp.horizon
        t_idx = index_of(anchor_ts)
        anchor_rec = by_ts.get(anchor_ts)
        anchor_load = anchor_rec.load if anchor_rec is not None else None

        observations = []
        for i in range(1, horizon + 1):
            rec = by_ts.get(ts_of(t_idx + i))
            if rec is None or rec.temperature is None:
                observations.append(None)
            else:
                c = cal(t_idx + i)
                mean_temp = learner.tracker.mean(c)
                w = rec.temperature
                observations.append(ObservationVector(w=w, w_bar=mean_temp if mean_temp is not None else w))
        instance = InstanceVector(anchor_load=anchor_load, observations=tuple(observations), t=t_idx)

        is_test = config.train_end <= anchor_ts  # anchors at or past test_end already broke out
        if is_test:
            if anchor_load is None:
                skipped_days += 1
            else:
                path = predict(learner.model, instance, cal, encoder, state=learner.state)
                cold_starts += len(path.cold_start_substitutions)
                for i, pt in enumerate(path.points, start=1):
                    row = f"{ts_of(t_idx + i).isoformat()},{i},{_format_float(pt.mean)},{_format_float(pt.std)}"
                    if z_grid is not None:
                        row += "," + ",".join(_format_float(pt.mean + pt.std * z) for z in z_grid)
                    forecast_rows.append(row)
                    rec = by_ts.get(ts_of(t_idx + i))
                    if rec is not None and rec.load is not None:
                        eval_samples.append((rec.load, pt))

        if frozen_after is None or anchor_ts < frozen_after:
            targets = []
            for i in range(1, horizon + 1):
                rec = by_ts.get(ts_of(t_idx + i))
                targets.append(rec.load if rec is not None else None)
            learner.learn_step(instance, targets)
        processed = anchor_ts

    report = evaluate_forecasts(eval_samples, q_grid) if eval_samples else None
    max_slope = max(abs(float(p.eta[1])) for p in learner.model.s_channels)
    notes = {
        "load_unit": config.load_unit,
        "n_forecast_rows": len(forecast_rows),
        "n_eval_points": len(eval_samples),
        "skipped_days": skipped_days,
        "cold_start_substitutions": cold_starts,
        "sigma_clamps": learner.diagnostics.sigma_clamps,
        "trace_resets": learner.diagnostics.trace_resets,
        "batch_init_fallbacks": learner.diagnostics.batch_init_fallbacks,
        "max_abs_transition_slope": max_slope,
        "n_gap_steps": sum(g["missing_steps"] for g in gaps) if gaps else 0,
    }

    if snapshot_out is not None:
        snapshot_save(snapshot_out, learner.model, learner.state, learner.tracker, hp,
                      cursor=processed, pending=learner.pending_batch)
    if output_dir is not None:
        _write_outputs(Path(output_dir), header, forecast_rows, report, notes)
    return RunResult(report=report, forecast_rows=forecast_rows, eval_samples=eval_samples,
                     notes=notes, forecast_header=header)


def _write_outputs(output_dir: Path, header: str, forecast_rows: list[str],
                   report: EvalReport | None, notes: dict) -> None:
    output_dir.mkdir(parents=True, exist_ok=True)
    (output_dir / "forecasts.csv").write_text(header + "\n" + "".join(r + "\n" for r in forecast_rows))
    lines = []
    if report is not None:
        lines.extend(report.lines())
    for key, value in notes.items():
        lines.append(f"{key} = {value}")
    (output_dir / "report.txt").write_text("".join(line + "\n" for line in lines))
    cal_lines = ["q,coverage"]
    if report is not None:
        cal_lines += [f"{q!r},{c!r}" for q, c in report.calibration_curve]
    (output_dir / "calibration.csv").write_text("".join(line + "\n" for line in cal_lines))
