"""Ingestion, configuration, snapshots, the rolling loop, and the CLI."""

import copy
import hashlib
import importlib
import json
import math
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import src_path_env

import aplf
from aplf import cli, forecaster, harness, recursive_learner
from aplf.cli import main as cli_main
from aplf.harness import (
    CorruptSnapshot,
    EmptySpan,
    NonMonotoneTimestamps,
    ParseError,
    RunConfig,
    Snapshot,
    UnitMissing,
    VersionMismatch,
    ingest_csv,
    load_config,
    read_series,
    run_online_evaluation,
    snapshot_load,
    snapshot_save,
)
from aplf.features import TemperatureShiftEncoder, TemperatureTracker
from aplf.forecaster import InstanceVector
from aplf.metrics import evaluate_forecasts
from aplf.model_types import HyperParams, InputError, LearnerState, ModelParams, NumericError
from aplf.recursive_learner import OnlineLearner
from aplf.synthetic import make_hourly_series, write_series_csv

UTC = timezone.utc


def base_config(**overrides) -> RunConfig:
    config = RunConfig(hp=HyperParams(), load_unit="GW")
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def write_small_csv(path: Path, rows) -> Path:
    write_series_csv(path, rows)
    return path


@pytest.fixture(scope="module")
def series_14d():
    return make_hourly_series(14, seed=1)


@pytest.fixture()
def data_csv(tmp_path, series_14d):
    return write_small_csv(tmp_path / "data.csv", series_14d)


# --- configuration -----------------------------------------------------------


def test_load_config_round_trip(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "\n".join(
            [
                "# demo configuration",
                "lambda_s = 0.2",
                "lambda_r = 0.7",
                "load_unit = GW",
                "temperature_unit = F",
                "prediction_time = 11:00",
                "train_end = 2021-03-11T00:00:00+00:00",
                "holidays = 2021-03-17, 2021-12-25",
                "horizon = 24",
                "emit_quantiles = false",
            ]
        )
    )
    config = load_config(cfg_path)
    assert config.hp.lambda_s == 0.2
    assert config.load_unit == "GW"
    assert config.prediction_time == time(11, 0)
    assert config.train_end == datetime(2021, 3, 11, tzinfo=UTC)
    assert date(2021, 12, 25) in config.holidays
    assert config.emit_quantiles is False


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    with pytest.raises(ParseError):
        load_config(cfg)


def test_load_config_rejects_bad_unit(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("load_unit = Watts\n")
    with pytest.raises(ParseError):
        load_config(cfg)


@pytest.mark.parametrize("bad_line", [
    "step_minutes = 0",
    "emit_quantiles = maybe",
    "lambda_s = abc",
    "lambda_s = 1.5",
    "horizon = -1",
    "prediction_time = 25:00",
    "init_mode = lazy",
    "holidays = 2021-02-30",
    "w1 = nan",
    "w2 = nan",
    "w3 = nan",
])
def test_load_config_errors_name_the_line(tmp_path, bad_line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# line 1\nload_unit = GW\n{bad_line}\n")
    with pytest.raises(ParseError, match=r"bad\.cfg:3: "):
        load_config(cfg)


def test_a_step_beyond_the_timedelta_range_is_a_parse_error_naming_the_line(tmp_path, data_csv, capsys):
    cfg = write_cli_config(tmp_path, step_minutes=99999999999999)
    with pytest.raises(ParseError, match=r"run\.cfg:3: step_minutes: "):
        load_config(cfg)
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg)]) == 2
    assert "step_minutes" in capsys.readouterr().err


def test_temperature_thresholds_may_be_negative_or_infinite_but_not_nan(tmp_path, data_csv, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("w1 = -5\nw2 = inf\nw3 = -inf\n")
    assert load_config(cfg).hp == HyperParams(w1=-5.0, w2=math.inf, w3=-math.inf)
    nan_cfg = write_cli_config(tmp_path, w1="nan")
    assert cli_main(["run", "--data", str(data_csv), "--config", str(nan_cfg)]) == 2
    assert "w1: w1 must not be NaN" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["calendar_types", "n_calendar_types", "output_dir"])
def test_calendar_types_is_an_unknown_key(tmp_path, data_csv, capsys, key):
    # The model fixes its 48 calendar types, so no key sets them; outputs go
    # where --output-dir says, so no key sets that either.
    cfg = write_cli_config(tmp_path, **{key: 48})
    with pytest.raises(ParseError, match=rf"run\.cfg:3: unknown key '{key}'"):
        load_config(cfg)
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg)]) == 2
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_schedule_horizon_below_one_names_the_line(tmp_path, horizon):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(f"2021-03-12,06:00,6\n2021-03-13,06:00,{horizon}\n")
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(f"load_unit = GW\nschedule_file = {schedule}\n")
    with pytest.raises(ParseError, match=r"schedule\.csv:2: horizon"):
        load_config(cfg)


def test_schedule_duplicate_day_names_the_second_line(tmp_path):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("# overrides\n2021-03-05,10:00,12\n2021-03-05,13:00\n")
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(f"load_unit = GW\nschedule_file = {schedule}\n")
    with pytest.raises(ParseError, match=r"schedule\.csv:3: duplicate day 2021-03-05"):
        load_config(cfg)


@pytest.mark.parametrize("at", ["11:00+05:00", "11:00Z"])
def test_a_time_of_day_with_a_utc_offset_is_input_error(tmp_path, data_csv, capsys, at):
    # Times of day are read in the data's own wall clock, where an offset would be dropped.
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(f"2021-03-05,10:00\n2021-03-06,{at}\n")
    for key, value, where in [("prediction_time", at, r"run\.cfg:3: prediction_time: "),
                              ("schedule_file", schedule, r"schedule\.csv:2: ")]:
        cfg = write_cli_config(tmp_path, **{key: value})
        with pytest.raises(ParseError, match=where + re.escape(f"time of day '{at}' has a UTC offset")):
            load_config(cfg)
        assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg)]) == 2
        assert "has a UTC offset" in capsys.readouterr().err


# --- ingestion ---------------------------------------------------------------


def test_ingest_well_formed_file(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(
        "timestamp,load,temperature\n"
        "2021-03-01T00:00:00+00:00,1.5,40.0\n"
        "2021-03-01T01:00:00+00:00,1.6,41.0\n"
        "2021-03-01T02:00:00+00:00,1.7,\n"
    )
    series, gaps = ingest_csv(path, base_config())
    assert len(series) == 3
    assert gaps == []
    assert series.start == datetime(2021, 3, 1, tzinfo=UTC) and series.step == timedelta(hours=1)
    assert series.index == [0, 1, 2]
    assert series.load == [1.5, 1.6, 1.7]
    assert series.temperature == [40.0, 41.0, None]


def test_ingest_out_of_order_rows_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T03:00:00+00:00,1.5\n"
        "2021-03-01T02:00:00+00:00,1.6\n"
    )
    with pytest.raises(NonMonotoneTimestamps, match=":3:"):
        ingest_csv(path, base_config())


def test_ingest_errors_name_the_line_after_a_quoted_field_spanning_lines(tmp_path):
    path = tmp_path / "ml.csv"
    path.write_text(
        "timestamp,load,temperature\n"
        '2021-03-01T00:00:00+00:00,1.5,"40.0\n"\n'
        "2021-03-01T01:00:00+00:00,-1.0,41.0\n"
        "2021-03-01T02:00:00+00:00,1.7,42.0\n"
    )
    with pytest.raises(ParseError, match=r"ml\.csv:4: load must be finite and >= 0"):
        ingest_csv(path, base_config())


def test_ingest_reports_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T00:30:00-05:00,1.5\n"
        "2021-03-01T03:30:00-05:00,\n"
        "2021-03-01T04:30:00-05:00,1.7\n"
        "2021-03-01T06:30:00-05:00,1.8\n"
    )
    series, gaps = ingest_csv(path, base_config())
    assert len(series) == 4
    assert series.index == [0, 3, 4, 6]
    assert series.load == [1.5, None, 1.7, 1.8]
    offset = timezone(timedelta(hours=-5))
    assert gaps == [{"after": datetime(2021, 3, 1, 0, 30, tzinfo=offset), "missing_steps": 2},
                    {"after": datetime(2021, 3, 1, 4, 30, tzinfo=offset), "missing_steps": 1}]


def test_ingest_of_a_header_only_file_has_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("timestamp,load\n")
    series, gaps = ingest_csv(path, base_config())
    assert len(series) == 0 and series.start is None and gaps == []
    with pytest.raises(EmptySpan):
        run_online_evaluation(series, base_config(train_end=datetime(2021, 3, 1, tzinfo=UTC)))


# A field longer than csv.field_size_limit() makes the csv module raise
# csv.Error; it is an input error naming the file and line, exit 2.
OVERSIZED_FIELD = "9" * 200_000


def test_ingest_oversized_field_is_a_parse_error_naming_the_line(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(f"timestamp,load\n2021-03-01T00:00:00+00:00,1.5\n2021-03-01T01:00:00+00:00,{OVERSIZED_FIELD}\n")
    with pytest.raises(ParseError, match=r"huge\.csv:3: field larger than field limit"):
        ingest_csv(path, base_config())
    assert cli_main(["run", "--data", str(path), "--config", str(write_cli_config(tmp_path))]) == 2
    assert f"{path}:3: field larger than field limit" in capsys.readouterr().err


def test_ingest_rejects_off_grid_timestamp(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T00:00:00+00:00,1.5\n"
        "2021-03-01T01:30:00+00:00,1.6\n"
    )
    with pytest.raises(ParseError, match=":3:"):
        ingest_csv(path, base_config())


def test_ingest_rejects_naive_and_offset_aware_timestamps_mixed(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T00:00:00+00:00,1.5\n"
        "2021-03-01T01:00:00,1.6\n"
    )
    with pytest.raises(ParseError, match=":3: .* mixes naive and offset-aware"):
        ingest_csv(path, base_config())


def test_ingest_requires_load_unit(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("timestamp,load\n2021-03-01T00:00:00+00:00,1.0\n")
    with pytest.raises(UnitMissing):
        ingest_csv(path, base_config(load_unit=None))


def test_read_series_parses_without_a_load_unit(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("timestamp,load\n2021-03-01T00:00:00+00:00,1.0\n2021-03-01T02:00:00+00:00,1.5\n")
    series = harness.read_series(path, base_config(load_unit=None))
    assert (series.index, series.load, series.temperature) == ([0, 2], [1.0, 1.5], [None, None])


def test_ingest_rejects_negative_load(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("timestamp,load\n2021-03-01T00:00:00+00:00,-1.0\n")
    with pytest.raises(ParseError, match=":2:"):
        ingest_csv(path, base_config())


@pytest.mark.parametrize("column", ["load", "temperature"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_ingest_rejects_non_finite_cells(tmp_path, capsys, column, value):
    load, temp = (value, "40.0") if column == "load" else ("1.6", value)
    path = tmp_path / "x.csv"
    path.write_text(
        "timestamp,load,temperature\n"
        "2021-03-01T00:00:00+00:00,1.5,40.0\n"
        f"2021-03-01T01:00:00+00:00,{load},{temp}\n"
    )
    with pytest.raises(ParseError, match=f":3: {column} must be finite"):
        ingest_csv(path, base_config())
    assert cli_main(["run", "--data", str(path), "--config", str(write_cli_config(tmp_path))]) == 2
    assert f"{path}:3: {column} must be finite" in capsys.readouterr().err


def test_ingest_rejects_a_celsius_temperature_that_overflows_in_fahrenheit(tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("timestamp,load,temperature\n2021-03-01T00:00:00+00:00,1.0,10.0\n"
                    "2021-03-01T01:00:00+00:00,1.0,1e308\n")
    with pytest.raises(ParseError, match=":3: temperature must be finite in degrees F, got 1e308 C"):
        ingest_csv(path, base_config(temperature_unit="C"))
    assert cli_main(["run", "--data", str(path), "--config", str(write_cli_config(tmp_path, temperature_unit="C"))]) == 2
    assert f"{path}:3: temperature must be finite" in capsys.readouterr().err
    # In Fahrenheit the same cell is finite as it stands.
    assert ingest_csv(path, base_config())[0].temperature == [10.0, 1e308]


def test_ingest_reads_a_celsius_temperature_whose_fahrenheit_value_is_finite(tmp_path):
    # 5e307 * 9.0 overflows, but 5e307 C is 9e307 F.
    path = tmp_path / "c.csv"
    path.write_text("timestamp,load,temperature\n2021-03-01T00:00:00+00:00,1.0,5e307\n")
    assert read_series(path, base_config(temperature_unit="C")).temperature == [9e307]


@pytest.mark.parametrize("snapshot_out", [False, True], ids=["no-snapshot", "snapshot-out"])
def test_temperatures_whose_tracker_sum_overflows_are_an_input_error(tmp_path, series_14d, capsys, snapshot_out):
    # Two finite 1e308 F readings at 03:00 on two weekdays sum to inf in calendar type 4's tracker entry.
    hot = {datetime(2021, 3, 2, 3, tzinfo=UTC), datetime(2021, 3, 3, 3, tzinfo=UTC)}
    data = write_small_csv(tmp_path / "hot.csv", [(ts, load, 1e308 if ts in hot else temp)
                                                  for ts, load, temp in series_14d])
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    with pytest.raises(ParseError, match="calendar type 4 sum to inf"):
        run_online_evaluation(ingest_csv(data, config)[0], config)
    out, snap = tmp_path / "out", tmp_path / "run.snapshot"
    args = ["run", "--data", str(data), "--config", str(write_cli_config(tmp_path)), "--output-dir", str(out)]
    assert cli_main(args + (["--snapshot-out", str(snap)] if snapshot_out else [])) == 2
    assert "calendar type 4 sum to inf" in capsys.readouterr().err
    assert not out.exists() and not snap.exists()


def test_ingest_converts_celsius(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("timestamp,load,temperature\n2021-03-01T00:00:00+00:00,1.0,10.0\n")
    series, _ = ingest_csv(path, base_config(temperature_unit="C"))
    assert series.temperature == [50.0]


def test_ingest_rejects_unknown_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,value\n2021-03-01T00:00:00+00:00,1.0\n")
    with pytest.raises(ParseError, match=":1:"):
        ingest_csv(path, base_config())


# --- snapshots ---------------------------------------------------------------


def test_snapshot_round_trip_is_bit_identical(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(series, config, snapshot_out=snap_path)
    snap = snapshot_load(snap_path)
    snapshot_save(tmp_path / "again.snapshot", snap)
    assert (tmp_path / "again.snapshot").read_bytes() == snap_path.read_bytes()
    again = snapshot_load(tmp_path / "again.snapshot")
    for a, b in zip(snap.model.s_channels + snap.model.r_channels,
                    again.model.s_channels + again.model.r_channels):
        assert np.array_equal(a.eta, b.eta)
        assert a.sigma == b.sigma
    for a, b in zip(snap.state.s_states + snap.state.r_states,
                    again.state.s_states + again.state.r_states):
        assert np.array_equal(a.P, b.P)
        assert a.gamma == b.gamma
    assert snap.tracker.sums == again.tracker.sums


@pytest.mark.parametrize("owner, name", [("model", "s_channels"), ("model", "r_channels"), ("state", "s_states"),
                                         ("state", "r_states"), ("tracker", "counts"), ("tracker", "sums")])
def test_snapshot_save_refuses_a_list_of_47_entries_and_writes_no_file(tmp_path, owner, name):
    # snapshot_load would refuse the file as corrupt, so it is never written.
    records = {"model": ModelParams.initial(), "state": LearnerState.initial(), "tracker": TemperatureTracker()}
    getattr(records[owner], name).pop()
    path = tmp_path / "short.snapshot"
    with pytest.raises(ValueError, match=rf"{owner}\.{name} has 47 entries, not 48"):
        snapshot_save(path, Snapshot(records["model"], records["state"], records["tracker"], HyperParams(), None))
    assert not path.exists()


def test_snapshot_save_refuses_a_non_finite_value_and_writes_no_file(tmp_path):
    # Two finite temperatures of one type sum to inf; snapshot_load would refuse the file.
    tracker = TemperatureTracker()
    tracker.learn([1, 1], [1e308, 1e308])
    assert tracker.sums[0] == math.inf
    path = tmp_path / "inf.snapshot"
    with pytest.raises(ValueError, match="not JSON compliant"):
        snapshot_save(path, Snapshot(ModelParams.initial(), LearnerState.initial(), tracker, HyperParams(), None))
    assert not path.exists()


def test_a_snapshot_write_that_fails_partway_leaves_the_old_snapshot(tmp_path, data_csv, monkeypatch):
    # As when the disk fills up: part of the document is written, then the write raises.
    path = _snapshot_of_a_run(tmp_path, data_csv)
    old, listing = path.read_bytes(), sorted(tmp_path.iterdir())
    snap = snapshot_load(path)
    snap.tracker.counts[0] += 1

    def write_part(self, text, *args, **kwargs):
        with open(self, "w") as fh:
            fh.write(text[:100])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_part)
    with pytest.raises(OSError, match="No space left on device"):
        snapshot_save(path, snap)
    monkeypatch.undo()
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == listing


def test_snapshot_shape_mismatch(tmp_path, data_csv, capsys):
    # SNAPSHOT_V1 is a consistent 2-type snapshot; the model has 48 types.
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    with pytest.raises(CorruptSnapshot, match="n_calendar_types must be the integer 48, got 2"):
        run_online_evaluation(series, config, resume=SNAPSHOT_V1)
    assert cli_main(["run", "--data", str(data_csv), "--config", str(write_cli_config(tmp_path)),
                     "--resume", str(SNAPSHOT_V1)]) == 2
    assert "n_calendar_types" in capsys.readouterr().err


def test_snapshot_truncated_file_is_corrupt(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(series, config, snapshot_out=snap_path)
    clipped = tmp_path / "clipped.snapshot"
    clipped.write_text(snap_path.read_text()[:200])
    with pytest.raises(CorruptSnapshot):
        snapshot_load(clipped)


@pytest.mark.parametrize("layout", ["document", "payload-as-written"])
def test_a_snapshot_nested_past_the_recursion_limit_is_corrupt(tmp_path, data_csv, capsys, layout):
    deep = "[" * 100000 + "]" * 100000
    if layout == "payload-as-written":
        deep = harness._HEAD + hashlib.sha256(deep.encode()).hexdigest() + harness._MID + deep + harness._TAIL
    path = tmp_path / "deep.snapshot"
    path.write_text(deep)
    with pytest.raises(CorruptSnapshot, match="not a parseable snapshot"):
        snapshot_load(path)
    assert cli_main(["run", "--data", str(data_csv), "--config", str(write_cli_config(tmp_path)),
                     "--resume", str(path)]) == 2
    assert "not a parseable snapshot" in capsys.readouterr().err


def test_snapshot_tampered_payload_is_corrupt(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(series, config, snapshot_out=snap_path)
    doc = json.loads(snap_path.read_text())
    doc["payload"]["r_dim"] = 9
    snap_path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(snap_path)


@pytest.mark.parametrize("version", [99, True, 1.0])
def test_snapshot_version_mismatch(tmp_path, data_csv, version):
    # True and 1.0 equal 1 in Python, but only the JSON integer 1 is version 1.
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(series, config, snapshot_out=snap_path)
    doc = json.loads(snap_path.read_text())
    doc["version"] = version
    snap_path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        snapshot_load(snap_path)


def _snapshot_of_a_run(tmp_path, data_csv) -> Path:
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    path = tmp_path / "model.snapshot"
    run_online_evaluation(series, config, snapshot_out=path)
    return path


def test_a_saved_snapshot_loads_without_encoding_its_payload_again(tmp_path, data_csv, monkeypatch):
    path = _snapshot_of_a_run(tmp_path, data_csv)
    expected = snapshot_load(path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called while loading")

    monkeypatch.setattr(harness.json, "dumps", refuse)
    snap = snapshot_load(path)
    assert (snap.model, snap.state, snap.hp, snap.cursor) == (expected.model, expected.state, expected.hp,
                                                              expected.cursor)
    assert (snap.tracker.counts, snap.tracker.sums) == (expected.tracker.counts, expected.tracker.sums)


def test_a_re_serialized_snapshot_loads_and_resaves_byte_identically(tmp_path):
    indented = tmp_path / "indented.snapshot"
    indented.write_text(json.dumps(json.loads(SNAPSHOT_V1_48.read_text()), indent=2))
    snap = snapshot_load(indented)
    snapshot_save(tmp_path / "again.snapshot", snap)
    assert (tmp_path / "again.snapshot").read_bytes() == SNAPSHOT_V1_48.read_bytes()


@pytest.mark.parametrize("eta", [3.099274526707321, math.nan], ids=["as-saved", "nan"])
def test_a_hand_hashed_non_canonical_payload_is_checked_value_by_value(tmp_path, eta):
    doc = json.loads(SNAPSHOT_V1_48.read_text())
    doc["payload"]["model"]["s_channels"][0]["eta"][0] = eta
    body = json.dumps(doc["payload"], indent=1)
    path = tmp_path / "hand.snapshot"
    path.write_text(f'{{"checksum":"{hashlib.sha256(body.encode()).hexdigest()}","format":"aplf-snapshot",'
                    f'"payload":{body},"version":1}}')
    if math.isnan(eta):
        with pytest.raises(CorruptSnapshot, match="malformed payload"):
            snapshot_load(path)
    else:
        assert snapshot_load(path).model == snapshot_load(SNAPSHOT_V1_48).model


@pytest.mark.parametrize("layout", ["as-written", "indented"])
def test_one_changed_digit_of_a_p_entry_fails_the_checksum(tmp_path, data_csv, layout):
    path = _snapshot_of_a_run(tmp_path, data_csv)
    text = path.read_text()
    at = text.index('"P":[[') + len('"P":[[')
    at += text[at:].index(".") + 2  # the first decimal of the first P entry
    digit = text[at]
    assert digit.isdigit()
    text = text[:at] + str((int(digit) + 1) % 10) + text[at + 1:]
    if layout == "indented":
        text = json.dumps(json.loads(text), indent=2)
    path.write_text(text)
    with pytest.raises(CorruptSnapshot, match="checksum mismatch"):
        snapshot_load(path)


def test_a_resumed_run_builds_no_initial_model_or_state(tmp_path, data_csv, monkeypatch):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "split.snapshot"
    run_online_evaluation(series, base_config(train_end=config.train_end,
                                              test_end=datetime(2021, 3, 13, tzinfo=UTC)),
                          snapshot_out=snap_path)
    built = []
    for cls in (ModelParams, LearnerState):
        initial = cls.initial.__func__

        def spy(cls_, *args, _initial=initial, **kwargs):
            built.append(cls_.__name__)
            return _initial(cls_, *args, **kwargs)

        monkeypatch.setattr(cls, "initial", classmethod(spy))
    run_online_evaluation(series, config, resume=snap_path)
    assert built == []
    run_online_evaluation(series, config)
    assert built == ["ModelParams", "LearnerState"]


# A 2-type snapshot written by format version 1 as first released: batch
# init mode after three 4-step learn_steps, so both transition channels are
# initialized and both observation channels still hold pending samples. The
# model has 48 calendar types, so loading it fails.
SNAPSHOT_V1 = Path(__file__).parent / "data" / "snapshot_v1.json"
# A 48-type snapshot in format version 1, written by a batch-initialized
# learner of an earlier version after one 4-step learn_step per calendar type.
# Types 1 and 2 saw only one temperature shift, so their observation channels
# still buffer four samples each, as pending_batch keys r:1 and r:2; learners
# no longer buffer observation channels.
SNAPSHOT_V1_48 = Path(__file__).parent / "data" / "snapshot_v1_48.json"


def test_a_resumed_learner_replays_the_v1_48_observation_buffers_from_the_zero_start():
    snap = snapshot_load(SNAPSHOT_V1_48)
    buffers = {c: snap.state.pending[("r", c)] for c in (1, 2)}
    learner = OnlineLearner(snap.hp, "batch", model=snap.model, state=snap.state)
    assert learner.state.pending == {} and learner.diagnostics.batch_init_fallbacks == 2
    for c, buf in buffers.items():
        zero = OnlineLearner(snap.hp)
        zero.learn_step(InstanceVector(None, tuple(u for u, _ in buf), (c,) * len(buf), 0), [s for _, s in buf])
        assert learner.model.r_channels[c - 1] == zero.model.r_channels[c - 1]
        assert learner.state.r_states[c - 1] == zero.state.r_states[c - 1]


def _rewrite_payload(src: Path, dst: Path, edit) -> Path:
    """Copy a snapshot with its payload edited and its checksum recomputed."""
    doc = json.loads(src.read_text())
    edit(doc["payload"])
    body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    dst.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return dst


def test_v1_snapshot_resaves_byte_identically(tmp_path):
    snap = snapshot_load(SNAPSHOT_V1_48)
    assert sorted(snap.state.pending) == [("r", 1), ("r", 2)]
    snapshot_save(tmp_path / "again.snapshot", snap)
    assert (tmp_path / "again.snapshot").read_bytes() == SNAPSHOT_V1_48.read_bytes()


def _widen_observation_channels(p):
    """Make the payload a consistent r_dim = 4 model: every observation-channel eta, P and pending vector grows."""
    p["r_dim"] = 4
    for channel in p["model"]["r_channels"]:
        channel["eta"].append(0.0)
    for state in p["state"]["r_states"]:
        state["P"] = [row + [0.0] for row in state["P"]] + [[0.0, 0.0, 0.0, 1.0]]
    for buf in p["pending_batch"].values():
        for u, _ in buf:
            u.append(0.0)


def _narrow_observation_channels(p):
    """Make the payload a consistent r_dim = 2 model: every observation-channel eta, P and pending vector
    loses its last entry."""
    p["r_dim"] = 2
    for channel in p["model"]["r_channels"]:
        channel["eta"].pop()
    for state in p["state"]["r_states"]:
        state["P"] = [row[:2] for row in state["P"][:2]]
    for buf in p["pending_batch"].values():
        for u, _ in buf:
            u.pop()


@pytest.mark.parametrize("edit", [
    lambda p: p["model"]["s_channels"].pop(),
    lambda p: p["model"]["r_channels"][1]["eta"].pop(),
    lambda p: p["state"]["s_states"][0].update(P=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    lambda p: p["state"]["r_states"].append(p["state"]["r_states"][0]),
    lambda p: p["tracker"]["counts"].pop(),
    lambda p: p["tracker"]["sums"].append(1.0),
    lambda p: p["pending_batch"]["r:1"][0][0].pop(),
    lambda p: p["pending_batch"].update({"r:49": []}),
    lambda p: p["hyper_params"].update(n_calendar_types=2),
    lambda p: p["state"]["r_states"][1]["P"][0].__setitem__(2, 0.5),
    lambda p: p["model"]["s_channels"][0]["eta"].__setitem__(1, math.nan),
    lambda p: p["model"]["s_channels"][1].update(sigma=-1.0),
    lambda p: p["model"]["r_channels"][0].update(sigma=math.inf),
    lambda p: p["state"]["s_states"][0].update(gamma=-5.0),
    lambda p: p["state"]["r_states"][1].update(gamma=math.nan),
    lambda p: p["state"]["s_states"][1].update(P=[[-3.0, 0.0], [0.0, -3.0]]),
    lambda p: p["state"]["s_states"][0].update(P=[[1.0, 2.0], [2.0, 1.0]]),
    lambda p: p["state"]["r_states"][0].update(P=[[-3.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, -3.0]]),
    lambda p: p["state"]["r_states"][1].update(P=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
    lambda p: p["state"]["s_states"][0].update(P=[[math.inf, 0.0], [0.0, 1.0]]),
    lambda p: p["tracker"]["counts"].__setitem__(0, -4),
    lambda p: p["tracker"]["counts"].__setitem__(1, 2.5),
    lambda p: p["tracker"]["sums"].__setitem__(0, math.nan),
    lambda p: p["pending_batch"]["r:2"][0][0].__setitem__(1, math.inf),
    lambda p: p["pending_batch"]["r:1"][1].__setitem__(1, math.nan),
    _widen_observation_channels,
    _narrow_observation_channels,
    lambda p: p.update(n_calendar_types="48"),
    lambda p: p.update(r_dim=3.9),
    lambda p: p.update(r_dim=3.0),
    lambda p: p.update(cursor=""),
    lambda p: p.update(n_calendar_types=2),
    lambda p: p.update(n_calendar_types=48.0),
    lambda p: p["hyper_params"].update(n_calendar_types=48.0),
    lambda p: p["hyper_params"].pop("n_calendar_types"),
    lambda p: p.update(pending_batch=None),
    lambda p: p.update(pending_batch=[]),
    lambda p: p.update(pending_batch="x"),
    lambda p: p.update(pending_batch=3),
], ids=["short-s-channels", "short-r-eta", "3x3-P-on-K2", "extra-r-state", "short-tracker-counts",
        "long-tracker-sums", "short-pending-vector", "pending-type-out-of-range", "hyper-params-types",
        "asymmetric-P", "nan-eta", "negative-sigma", "inf-sigma", "negative-gamma", "nan-gamma",
        "negative-definite-P-K2", "indefinite-P-K2", "negative-definite-P-K3", "indefinite-P-K3", "inf-P",
        "negative-tracker-count", "fractional-tracker-count", "nan-tracker-sum", "inf-pending-vector",
        "nan-pending-load", "r_dim-4", "r_dim-2", "string-n_calendar_types", "fractional-r_dim", "float-r_dim",
        "empty-cursor", "n_calendar_types-2", "float-n_calendar_types", "float-hyper-params-types",
        "missing-hyper-params-types", "null-pending-batch", "list-pending-batch", "string-pending-batch",
        "number-pending-batch"])
def test_snapshot_contradicting_its_header_is_corrupt(tmp_path, edit):
    bad = _rewrite_payload(SNAPSHOT_V1_48, tmp_path / "bad.snapshot", edit)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(bad)


@pytest.mark.parametrize("edit", [
    lambda pending: pending.update({"r:01": pending.pop("r:1")}),
    lambda pending: pending.update({"r: 1": pending.pop("r:1")}),
    lambda pending: pending.update({"r:+1": pending.pop("r:1")}),
    # Read after r:1, this alias would silently empty r:1's buffer.
    lambda pending: pending.update({"r:1 ": []}),
], ids=["leading-zero", "space", "plus-sign", "duplicate"])
def test_snapshot_pending_keys_must_name_their_channel_exactly(tmp_path, edit):
    bad = _rewrite_payload(SNAPSHOT_V1_48, tmp_path / "bad.snapshot", lambda p: edit(p["pending_batch"]))
    with pytest.raises(CorruptSnapshot, match="names no channel"):
        snapshot_load(bad)


@pytest.mark.parametrize("edit", [lambda p: p["model"]["s_channels"].pop(), _narrow_observation_channels],
                         ids=["short-s-channels", "r_dim-2"])
def test_cli_resume_from_a_malformed_snapshot_is_input_error(tmp_path, data_csv, capsys, edit):
    cfg = write_cli_config(tmp_path, test_end="2021-03-13T00:00:00+00:00")
    snap = tmp_path / "mid.snapshot"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg), "--snapshot-out", str(snap)]) == 0
    bad = _rewrite_payload(snap, tmp_path / "bad.snapshot", edit)
    capsys.readouterr()
    assert cli_main(["run", "--data", str(data_csv), "--config", str(write_cli_config(tmp_path)),
                     "--resume", str(bad)]) == 2
    assert "malformed payload" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["--data", "--config", "--resume", "schedule_file"])
def test_cli_a_directory_in_place_of_an_input_file_is_input_error(tmp_path, data_csv, capsys, which):
    folder = tmp_path / "folder"
    folder.mkdir()
    schedule = {"schedule_file": folder} if which == "schedule_file" else {}
    args = {"--data": data_csv, "--config": write_cli_config(tmp_path, **schedule)}
    if which.startswith("--"):
        args[which] = folder
    assert cli_main(["run", *(str(x) for pair in args.items() for x in pair)]) == 2
    assert str(folder) in capsys.readouterr().err


def test_cli_resume_under_other_hyper_params_is_input_error(tmp_path, data_csv, capsys):
    cfg = write_cli_config(tmp_path, test_end="2021-03-13T00:00:00+00:00")
    snap = tmp_path / "mid.snapshot"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg), "--snapshot-out", str(snap)]) == 0
    other = write_cli_config(tmp_path, lambda_s=0.9, lambda_r=0.95, trace_reset_threshold=1000)
    capsys.readouterr()
    assert cli_main(["run", "--data", str(data_csv), "--config", str(other), "--resume", str(snap)]) == 2
    assert "lambda_s, lambda_r, trace_reset_threshold" in capsys.readouterr().err


# --- the rolling loop --------------------------------------------------------


# SHA-256 digests of `aplf run` on `scripts/make_synthetic.py --days 60
# --switch-day 30` (paper defaults, zero init, quantile columns): its input,
# forecasts.csv and --snapshot-out file. report.txt is left out, as numpy's
# reductions may round differently on other CPUs.
GOLDEN_60D = Path(__file__).parent / "data" / "golden_60d.json"
# The same digests for the batch-init path: write_batch_init_series below,
# in Celsius with holidays, blank cells and temperature events, under
# init_mode = batch.
GOLDEN_60D_BATCH = Path(__file__).parent / "data" / "golden_60d_batch.json"
# The same digests for write_offset_series_with_gaps below: a fixed -05:00
# offset and deleted rows, with quantile columns.
GOLDEN_60D_OFFSET = Path(__file__).parent / "data" / "golden_60d_offset.json"


def golden_digests(tmp_path, golden: dict, write_input) -> dict:
    """SHA-256 of the input, forecasts.csv and snapshot of one `aplf run` under golden's config."""
    files = {"series.csv": tmp_path / "series.csv", "forecasts.csv": tmp_path / "out" / "forecasts.csv",
             "snapshot.json": tmp_path / "snapshot.json"}
    write_input(files["series.csv"])
    (tmp_path / "run.cfg").write_text(golden["config"])
    assert cli_main(["run", "--data", str(files["series.csv"]), "--config", str(tmp_path / "run.cfg"),
                     "--output-dir", str(tmp_path / "out"), "--snapshot-out", str(files["snapshot.json"])]) == 0
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}


def write_batch_init_series(path: Path) -> None:
    """make_hourly_series(60, switch_day=30, seed=7) written in Celsius, with about 2% blank
    load cells and 2% blank temperature cells, a 3-day heat wave (+40 F) from day 25 and a
    3-day cold snap (-45 F) from day 45, so that both temperature flags fire."""
    rng = np.random.default_rng(7)
    lines = ["timestamp,load,temperature"]
    for i, (ts, load, temp) in enumerate(make_hourly_series(60, switch_day=30, seed=7)):
        day = i // 24
        temp += 40.0 if 25 <= day < 28 else -45.0 if 45 <= day < 48 else 0.0
        load_cell = "" if rng.random() < 0.02 else repr(load)
        temp_cell = "" if rng.random() < 0.02 else repr((temp - 32.0) * 5.0 / 9.0)
        lines.append(f"{ts.isoformat()},{load_cell},{temp_cell}")
    path.write_text("".join(line + "\n" for line in lines))


# Local wall-clock instants deleted from the offset golden's series: one in
# the warm-up, one test-day anchor (a skipped day), two adjacent forecast
# targets, and one more target.
OFFSET_SERIES_DELETED = ("2021-03-05T03:00", "2021-03-25T11:00", "2021-04-10T15:00",
                         "2021-04-10T16:00", "2021-04-20T23:00")


def write_offset_series_with_gaps(path: Path) -> None:
    """`scripts/make_synthetic.py --days 60 --switch-day 30` with every timestamp's wall
    clock kept and its offset set to -05:00, less the rows at OFFSET_SERIES_DELETED."""
    offset = timezone(timedelta(hours=-5))
    rows = [(ts.replace(tzinfo=offset), load, temp) for ts, load, temp in make_hourly_series(60, switch_day=30)]
    deleted = {datetime.fromisoformat(t).replace(tzinfo=offset) for t in OFFSET_SERIES_DELETED}
    write_series_csv(path, [row for row in rows if row[0] not in deleted])


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_60D.read_text())
    digests = golden_digests(tmp_path, golden,
                             lambda path: write_series_csv(path, make_hourly_series(60, switch_day=30)))
    assert digests == golden["sha256"]


def test_batch_init_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN_60D_BATCH.read_text())
    assert golden_digests(tmp_path, golden, write_batch_init_series) == golden["sha256"]


def test_offset_series_with_gaps_matches_the_golden_digests(tmp_path, capsys):
    golden = json.loads(GOLDEN_60D_OFFSET.read_text())
    assert golden_digests(tmp_path, golden, write_offset_series_with_gaps) == golden["sha256"]
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert "skipped_days = 1" in report and "n_gap_steps = 5" in report
    capsys.readouterr()
    assert cli_main(["metrics", "--forecasts", str(tmp_path / "out" / "forecasts.csv"),
                     "--actuals", str(tmp_path / "series.csv")]) == 0
    assert capsys.readouterr().out.splitlines() == report[:6]


def test_two_runs_are_byte_identical(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_online_evaluation(series, config, output_dir=out1)
    run_online_evaluation(series, config, output_dir=out2)
    assert (out1 / "forecasts.csv").read_bytes() == (out2 / "forecasts.csv").read_bytes()
    assert (out1 / "calibration.csv").read_bytes() == (out2 / "calibration.csv").read_bytes()


# Step-grid layouts of the 14-day series: hourly with the default horizon,
# whose daily windows tile the day; hourly with a horizon of 48, whose
# forecasts overlap the next day's; and a 15-minute step, on which 24 steps
# cover six hours of the day.
LAYOUTS = ("hourly", "horizon-48", "15-minute-step")


def layout_run(tmp_path, data_csv, layout: str, **overrides) -> tuple[Path, RunConfig]:
    """The series' CSV and a run config for one of LAYOUTS, training through 2021-03-11 unless
    overridden."""
    config = base_config(**{"train_end": datetime(2021, 3, 11, tzinfo=UTC), **overrides})
    if layout == "horizon-48":
        config.hp = HyperParams(horizon=48)
    elif layout == "15-minute-step":
        config.step = timedelta(minutes=15)
        data_csv = quarter_hourly_csv(tmp_path / "quarter.csv", 14)
    return data_csv, config


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("init_mode", ["zero", "batch"])
def test_split_run_resumes_byte_identically(tmp_path, data_csv, layout, init_mode):
    # The split comes less than a day into the first weekend, so under batch init some
    # of the weekend types' transition buffers still hold samples.
    train_end = datetime(2021, 3, 5, tzinfo=UTC)
    data_csv, config = layout_run(tmp_path, data_csv, layout, init_mode=init_mode, train_end=train_end)
    series, _ = ingest_csv(data_csv, config)
    full = run_online_evaluation(series, config, snapshot_out=tmp_path / "full.snapshot")

    split_at = datetime(2021, 3, 6, tzinfo=UTC)
    _, config_first = layout_run(tmp_path, data_csv, layout, init_mode=init_mode, train_end=train_end,
                                 test_end=split_at)
    snap_path = tmp_path / "split.snapshot"
    first = run_online_evaluation(series, config_first, snapshot_out=snap_path)
    # Under batch init, samples still awaiting batch initialization cross the split.
    assert any(json.loads(snap_path.read_text())["payload"]["pending_batch"].values()) == (init_mode == "batch")
    second = run_online_evaluation(series, config, resume=snap_path, snapshot_out=tmp_path / "second.snapshot")
    assert list(first.forecast_rows) + list(second.forecast_rows) == list(full.forecast_rows)
    assert (tmp_path / "second.snapshot").read_bytes() == (tmp_path / "full.snapshot").read_bytes()


def restamped_csv(path: Path, source: Path, tz) -> Path:
    """source's rows with each timestamp's wall-clock time kept and its zone replaced by tz (naive if None)."""
    header, *rows = source.read_text().splitlines()
    restamped = [f"{datetime.fromisoformat(ts).replace(tzinfo=tz).isoformat()},{rest}"
                 for ts, rest in (row.split(",", 1) for row in rows)]
    path.write_text("".join(line + "\n" for line in [header, *restamped]))
    return path


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("tz", [None, UTC, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-3))],
                         ids=["naive", "utc", "+05:30", "-03:00"])
@pytest.mark.parametrize("at", [time(11), time(23)], ids=["11:00", "23:00"])
def test_each_forecast_row_is_stamped_with_its_own_instant(tmp_path, data_csv, layout, tz, at):
    data_csv, config = layout_run(tmp_path, data_csv, layout, prediction_time=at)
    data_csv = restamped_csv(tmp_path / "restamped.csv", data_csv, tz)
    config.train_end = config.train_end.replace(tzinfo=tz)
    series, _ = ingest_csv(data_csv, config)
    result = run_online_evaluation(series, config)

    # Every test day's prediction instant inside the data is an anchor, and its
    # rows are stamped anchor + h * step for h = 1..horizon, with the data's
    # offset. At 23:00 every window crosses midnight.
    start, step, horizon = series.start, series.step, config.hp.horizon
    last = start + series.index[-1] * step
    days = (start.date() + timedelta(days=k) for k in range((last.date() - start.date()).days + 1))
    anchors = [ts for ts in (datetime.combine(day, at, tzinfo=tz) for day in days)
               if config.train_end <= ts <= last]
    expected = [f"{(anchor + h * step).isoformat()},{h}" for anchor in anchors for h in range(1, horizon + 1)]
    assert [",".join(row.split(",", 2)[:2]) for row in result.forecast_rows] == expected
    assert anchors and (at != time(23) or all((a + horizon * step).date() > a.date() for a in anchors))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_the_tracker_counts_each_known_temperature_of_the_learned_steps_once(tmp_path, data_csv, layout):
    data_csv, config = layout_run(tmp_path, data_csv, layout)
    series, _ = ingest_csv(data_csv, config)
    run_online_evaluation(series, config, snapshot_out=tmp_path / "run.snapshot")
    # Each anchor learns the steps after it through the next day's prediction
    # instant, so the run learns every step after its first anchor, once.
    first_anchor = (datetime.combine(series.start.date(), config.prediction_time, tzinfo=UTC)
                    - series.start) // series.step
    known = sum(w is not None for i, w in zip(series.index, series.temperature) if i > first_anchor)
    assert known > 0
    assert sum(snapshot_load(tmp_path / "run.snapshot").tracker.counts) == known


@pytest.mark.parametrize("layout", LAYOUTS)
def test_parameters_never_see_loads_after_the_prediction_time(data_csv, tmp_path, monkeypatch, layout):
    data_csv, config = layout_run(tmp_path, data_csv, layout)
    series, _ = ingest_csv(data_csv, config)

    captured = {}
    real_predict = harness.predict

    def spy(model, instance, state=None):
        captured[instance.t] = copy.deepcopy(model)
        return real_predict(model, instance, state=state)

    monkeypatch.setattr(harness, "predict", spy)
    run_online_evaluation(series, config)
    monkeypatch.setattr(harness, "predict", real_predict)
    assert captured

    header, *rows = data_csv.read_text().splitlines()
    for t_idx, seen_model in list(captured.items())[:2]:
        anchor_ts = series.start + t_idx * series.step
        visible = tmp_path / f"visible_{t_idx}.csv"
        kept = [row for row in rows if datetime.fromisoformat(row.split(",")[0]) <= anchor_ts]
        visible.write_text("".join(line + "\n" for line in [header, *kept]))
        snap_path = tmp_path / f"replay_{t_idx}.snapshot"
        visible_series, _ = ingest_csv(visible, config)
        assert len(visible_series) == t_idx + 1
        run_online_evaluation(visible_series, config, snapshot_out=snap_path)
        replayed = snapshot_load(snap_path).model
        for a, b in zip(seen_model.s_channels + seen_model.r_channels,
                        replayed.s_channels + replayed.r_channels):
            assert np.array_equal(a.eta, b.eta)
            assert a.sigma == b.sigma


def test_each_traced_call_is_made_once_per_sample_step_and_row(tmp_path, series_14d, monkeypatch):
    # A tracer that wraps these module attributes by name counts the work of each layer from its
    # calls, so the run must make each call through its attribute, once per unit of that work:
    # trace_reset once per reset, each call returning a new record.
    # The series has blank loads (one on test anchor 251), blank temperatures and a dropped row.
    blank_load, blank_temp, dropped = {40, 41, 100, 251}, {41, 42, 150, 252}, {300}
    load = {i: None if i in blank_load else x for i, (_, x, _) in enumerate(series_14d) if i not in dropped}
    temp = {i: None if i in blank_temp else w for i, (_, _, w) in enumerate(series_14d) if i not in dropped}
    data = tmp_path / "blanks.csv"
    data.write_text("timestamp,load,temperature\n" + "".join(
        f"{ts.isoformat()},{'' if load[i] is None else repr(load[i])},{'' if temp[i] is None else repr(temp[i])}\n"
        for i, (ts, _, _) in enumerate(series_14d) if i not in dropped))
    calls, kept_records = Counter(), 0

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            nonlocal kept_records
            calls[name] += 1
            out = real(*args, **kwargs)
            kept_records += name == "trace_reset" and out is args[0]
            return out
        monkeypatch.setattr(owner, name, counted)

    for owner, name in [(recursive_learner, "channel_update"), (recursive_learner, "trace_reset"),
                        (forecaster, "forecast_step"), (TemperatureShiftEncoder, "encode"),
                        (harness, "calendar_type")]:
        count(owner, name)
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    result = run_online_evaluation(ingest_csv(data, config)[0], config)

    # Anchors are at 11:00 each day; the grid runs through the last anchor's last forecast step, and
    # every step after the first anchor is learned, with its temperature encoded, once.
    first_anchor, last_anchor = 11, 13 * 24 + 11
    n_steps = last_anchor + config.hp.horizon + 1
    learned = range(first_anchor + 1, n_steps)
    samples = sum((temp.get(i) is not None) + (load.get(i - 1) is not None)
                  for i in learned if load.get(i) is not None)
    assert result.notes["skipped_days"] == 1 and samples > 0
    resets = result.notes["trace_resets"]
    assert resets > 0 and kept_records == 0
    assert calls == {"channel_update": samples, "trace_reset": resets, "forecast_step": len(result.forecast_rows),
                     "encode": sum(temp.get(i) is not None for i in learned), "calendar_type": n_steps}


def test_zero_length_test_span_raises(data_csv):
    config = base_config(
        train_end=datetime(2021, 3, 11, tzinfo=UTC),
        test_end=datetime(2021, 3, 11, tzinfo=UTC),
    )
    series, _ = ingest_csv(data_csv, config)
    with pytest.raises(EmptySpan):
        run_online_evaluation(series, config)


def test_missing_anchor_day_is_skipped_and_counted(tmp_path, series_14d):
    rows = [r for r in series_14d if not (r[0].day == 12 and r[0].hour == 11)]
    path = tmp_path / "holes.csv"
    write_series_csv(path, rows)
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, gaps = ingest_csv(path, config)
    assert gaps
    result = run_online_evaluation(series, config, gaps=gaps)
    assert result.notes["skipped_days"] == 1
    assert result.notes["n_gap_steps"] == 1


def test_gap_steps_are_counted_from_the_series_without_gaps_given(tmp_path):
    # Every 97th row of 30 days dropped: a run given no gaps= reports ingest_csv's count.
    rows = make_hourly_series(30)
    path = tmp_path / "gappy.csv"
    write_series_csv(path, [row for i, row in enumerate(rows) if i % 97 != 96])
    config = base_config(train_end=rows[0][0] + timedelta(days=10))
    series, gaps = ingest_csv(path, config)
    assert sum(g["missing_steps"] for g in gaps) == 7
    assert run_online_evaluation(series, config).notes["n_gap_steps"] == 7


# The last anchor (day 14, 11:00) predicts 12 steps past the last record;
# with test_end on day 14 the last anchor is day 13's, inside the records.
@pytest.mark.parametrize("test_end, steps_past_records", [
    (None, 12),
    (datetime(2021, 3, 14, tzinfo=UTC), 0),
])
def test_each_grid_step_is_typed_once(data_csv, monkeypatch, test_end, steps_past_records):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC), test_end=test_end)
    series, _ = ingest_csv(data_csv, config)
    typed = []
    real_calendar_type = harness.calendar_type

    def spy(ts, holidays):
        typed.append(ts)
        return real_calendar_type(ts, holidays)

    monkeypatch.setattr(harness, "calendar_type", spy)
    run_online_evaluation(series, config)
    assert len(typed) == len(set(typed)) == len(series) + steps_past_records


def test_dropped_row_equals_blank_row(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    lines = data_csv.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("2021-03-12T15:00:00+00:00,"))
    (tmp_path / "dropped.csv").write_text("".join(line + "\n" for line in lines[:k] + lines[k + 1:]))
    (tmp_path / "blanked.csv").write_text(
        "".join(line + "\n" for line in lines[:k] + ["2021-03-12T15:00:00+00:00,,"] + lines[k + 1:]))
    dropped, dropped_gaps = ingest_csv(tmp_path / "dropped.csv", config)
    blanked, blanked_gaps = ingest_csv(tmp_path / "blanked.csv", config)
    assert (len(dropped), len(blanked), len(dropped_gaps), blanked_gaps) == (len(lines) - 2, len(lines) - 1, 1, [])
    a = run_online_evaluation(dropped, config, snapshot_out=tmp_path / "dropped.snapshot")
    b = run_online_evaluation(blanked, config, snapshot_out=tmp_path / "blanked.snapshot")
    assert list(a.forecast_rows) == list(b.forecast_rows)
    # Only the gap count tells them apart: the dropped row is a missing step.
    assert (a.notes["n_gap_steps"], b.notes["n_gap_steps"]) == (1, 0)
    assert a.notes == {**b.notes, "n_gap_steps": 1}
    assert (tmp_path / "dropped.snapshot").read_bytes() == (tmp_path / "blanked.snapshot").read_bytes()


def test_short_last_horizon_with_records_past_it(tmp_path, data_csv):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("2021-03-14,06:00,2\n")
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(f"load_unit = GW\ntrain_end = 2021-03-11T00:00:00+00:00\nschedule_file = {schedule}\n")
    config = load_config(cfg)
    series, _ = ingest_csv(data_csv, config)
    result = run_online_evaluation(series, config)
    assert result.forecast_rows[-1].startswith("2021-03-14T08:00:00+00:00,2,")
    assert series.start + series.index[-1] * series.step == datetime(2021, 3, 14, 23, tzinfo=UTC)


def test_quantile_emission_adds_columns(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC), emit_quantiles=True)
    series, _ = ingest_csv(data_csv, config)
    out = tmp_path / "qrun"
    result = run_online_evaluation(series, config, output_dir=out)
    header = (out / "forecasts.csv").read_text().splitlines()[0]
    assert header.startswith("timestamp,horizon,mean,std,q01,")
    assert header.endswith(",q99")
    first_row = (out / "forecasts.csv").read_text().splitlines()[1]
    assert len(first_row.split(",")) == 4 + 99
    # Emitted quantile columns are non-decreasing across the grid.
    values = [float(v) for v in first_row.split(",")[4:]]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_each_temperature_of_a_processed_window_is_encoded_once(tmp_path, monkeypatch):
    path = tmp_path / "series.csv"
    write_batch_init_series(path)
    config = base_config(temperature_unit="C", train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(path, config)
    # Every day's 11:00 anchor is processed; its window is the next horizon steps.
    known = {i for i, w in zip(series.index, series.temperature) if w is not None}
    expected = sum(t + j in known for t in range(11, series.index[-1] + 1, 24)
                   for j in range(1, config.hp.horizon + 1))
    calls = []
    real_encode = TemperatureShiftEncoder.encode

    def counting(self, w, w_bar):
        calls.append(w)
        return real_encode(self, w, w_bar)

    monkeypatch.setattr(TemperatureShiftEncoder, "encode", counting)
    result = run_online_evaluation(series, config)
    assert result.notes["n_eval_points"] > 0
    assert len(calls) == expected


def test_the_tracker_learns_only_on_learned_days(tmp_path):
    path = tmp_path / "series.csv"
    write_batch_init_series(path)
    freeze = datetime(2021, 4, 10, 11, tzinfo=UTC)
    config = base_config(temperature_unit="C", train_end=datetime(2021, 3, 21, tzinfo=UTC))
    series, _ = ingest_csv(path, config)
    run_online_evaluation(series, config, frozen_after=freeze, snapshot_out=tmp_path / "frozen.snapshot")
    run_online_evaluation(series, config, snapshot_out=tmp_path / "online.snapshot")
    # The same data through the freeze: the last anchor, at the freeze, has no
    # temperature in its window.
    lines = path.read_text().splitlines(keepends=True)
    upto = tmp_path / "upto.csv"
    upto.write_text("".join(line for line in lines
                            if line.startswith("timestamp") or datetime.fromisoformat(line[:25]) <= freeze))
    truncated, _ = ingest_csv(upto, config)
    run_online_evaluation(truncated, config, snapshot_out=tmp_path / "upto.snapshot")
    frozen, online, upto = (snapshot_load(tmp_path / f"{name}.snapshot").tracker
                            for name in ("frozen", "online", "upto"))
    assert (frozen.counts, frozen.sums) == (upto.counts, upto.sums)
    assert sum(frozen.counts) < sum(online.counts)


def test_frozen_after_stops_learning(data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    online = run_online_evaluation(series, config)
    frozen = run_online_evaluation(series, config, frozen_after=config.train_end)
    assert list(online.forecast_rows) != list(frozen.forecast_rows)


def test_schedule_file_overrides_time_and_horizon(tmp_path, data_csv):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("2021-03-12,06:00,6\n")
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(
        "load_unit = GW\n"
        "train_end = 2021-03-11T00:00:00+00:00\n"
        f"schedule_file = {schedule}\n"
    )
    config = load_config(cfg)
    series, _ = ingest_csv(data_csv, config)
    result = run_online_evaluation(series, config)
    rows_by_anchor = {}
    for row in result.forecast_rows:
        ts_field, horizon_field = row.split(",")[:2]
        ts = datetime.fromisoformat(ts_field)
        anchor = ts - timedelta(hours=int(horizon_field))
        rows_by_anchor.setdefault(anchor, []).append(ts)
    overridden = rows_by_anchor[datetime(2021, 3, 12, 6, tzinfo=UTC)]
    assert len(overridden) == 6
    assert min(overridden) == datetime(2021, 3, 12, 7, tzinfo=UTC)
    assert len(rows_by_anchor[datetime(2021, 3, 13, 11, tzinfo=UTC)]) == 24  # defaults elsewhere


def test_run_result_columns_are_typed_arrays(data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    result = run_online_evaluation(ingest_csv(data_csv, config)[0], config)
    columns = (result.t, result.actual, result.mean, result.std)
    assert all(isinstance(column, array) for column in columns)
    assert [column.typecode for column in columns] == ["q", "d", "d", "d"]
    assert len(result.t) == result.notes["n_eval_points"] > 0


ROW_ZONES = {"naive": None, "+05:30": timezone(timedelta(hours=5, minutes=30)),
             "-03:00": timezone(timedelta(hours=-3))}


def assert_rows_read_alike(result, out: Path, data) -> list[str]:
    """The rows of a run that wrote out/forecasts.csv, read every way, agree; returns them as iterated."""
    rows = result.forecast_rows
    as_iterated = list(rows)
    assert len(as_iterated) == len(rows) == result.notes["n_forecast_rows"] > 0
    assert [rows[k] for k in range(len(rows))] == as_iterated
    assert (rows[-1], rows[-len(rows)]) == (as_iterated[-1], as_iterated[0])
    for k in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[k]
    for _ in range(3):
        cut = data.draw(st.slices(len(rows)))
        assert rows[cut] == as_iterated[cut]
    written = (out / "forecasts.csv").read_text()
    assert written == "".join(line + "\n" for line in [result.forecast_header, *as_iterated])
    return as_iterated


@settings(max_examples=40, deadline=None)
@given(data=st.data(), zone=st.sampled_from(list(ROW_ZONES)), minutes=st.sampled_from([60, 15]),
       horizon=st.sampled_from([24, 48]), scheduled=st.booleans(), quantiles=st.booleans(), split=st.booleans())
def test_forecast_rows_read_the_same_every_way(tmp_path_factory, data, zone, minutes, horizon, scheduled,
                                               quantiles, split):
    # Iteration, each index, negative indices, random slices and the written
    # file give the same rows: on naive and offset-aware grids, hourly and
    # quarter-hourly, with horizons of 24 and 48 steps (the second's anchors
    # overlap, so the rows' step indices go back), with one scheduled day
    # of another time and horizon, with and without quantile columns, and
    # in both halves of a run split at test_end and resumed.
    tmp_path, tz, step = tmp_path_factory.mktemp("rows"), ROW_ZONES[zone], timedelta(minutes=minutes)
    base = datetime(2021, 3, 1, tzinfo=tz)
    rows = [(base + i * step, 2.0 + 0.5 * math.sin(2.0 * math.pi * i * minutes / 1440.0) + 0.01 * (i % 7), 55.0)
            for i in range(6 * 1440 // minutes)]
    schedule = {date(2021, 3, 5): (time(6, 45 if minutes == 15 else 0), 7)} if scheduled else {}
    config = base_config(train_end=datetime(2021, 3, 3, tzinfo=tz), step=step, schedule=schedule,
                         emit_quantiles=quantiles, hp=HyperParams(horizon=horizon))
    series, _ = ingest_csv(write_small_csv(tmp_path / "series.csv", rows), config)
    full = assert_rows_read_alike(run_online_evaluation(series, config, output_dir=tmp_path / "full"),
                                  tmp_path / "full", data)
    assert all(len(row.split(",")) == (4 + 99 if quantiles else 4) for row in full)
    if split:
        first_config = copy.copy(config)
        first_config.test_end = datetime(2021, 3, 5, tzinfo=tz)
        snap = tmp_path / "first.snapshot"
        first = run_online_evaluation(series, first_config, output_dir=tmp_path / "first", snapshot_out=snap)
        second = run_online_evaluation(series, config, output_dir=tmp_path / "second", resume=snap)
        halves = [assert_rows_read_alike(half, tmp_path / name, data)
                  for half, name in [(first, "first"), (second, "second")]]
        assert halves[0] + halves[1] == full


def quantile_run_240d(tmp_path) -> tuple:
    """The series and config of a 240-day hourly run with quantile columns: 5,040 forecast rows."""
    data = write_small_csv(tmp_path / "series.csv", make_hourly_series(240, seed=1))
    config = base_config(train_end=datetime(2021, 3, 31, tzinfo=UTC), emit_quantiles=True)
    return ingest_csv(data, config)[0], config


def test_a_quantile_run_keeps_at_most_40_bytes_per_forecast_row(tmp_path):
    # Each forecast row of the result holds its mean and std as doubles, and
    # each anchor its step index and first row: no row is kept as text.
    series, config = quantile_run_240d(tmp_path)
    tracemalloc.start()
    try:
        result = run_online_evaluation(series, config)
        held = tracemalloc.get_traced_memory()[0]
        n_rows, result.forecast_rows = len(result.forecast_rows), None
        released = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_rows == 210 * 24
    assert released / n_rows <= 40


def test_writing_quantile_rows_peaks_at_most_1_mib_above_the_inputs(tmp_path):
    # Each row is formatted as it is written, in chunks of about 256 KiB, so
    # writing 5,040 rows of about 1.9 KB each never holds more than a chunk.
    series, config = quantile_run_240d(tmp_path)
    result = run_online_evaluation(series, config)
    assert len(result.forecast_rows) >= 5000
    tracemalloc.start()
    try:
        harness._write_outputs(tmp_path / "out", result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "out" / "forecasts.csv").stat().st_size > 9 * 2**20
    assert peak <= 2**20


@pytest.mark.parametrize("offset", [None, timedelta(hours=5), timedelta(hours=-5)], ids=["naive", "east", "west"])
def test_a_run_whose_forecasts_pass_the_last_representable_instant_is_a_parse_error(tmp_path, capsys, offset):
    # 12 hourly days from 9999-12-20: the last prediction day's 24 steps from
    # 11:00 run past 9999-12-31T23:00, the last step a timestamp can hold.
    rows = make_hourly_series(12, start=datetime(9999, 12, 20, tzinfo=offset and timezone(offset)))
    data = write_small_csv(tmp_path / "series.csv", rows)
    last = rows[-1][0].isoformat()
    assert last.startswith("9999-12-31T23:00:00")
    train_end = datetime(9999, 12, 25, tzinfo=rows[0][0].tzinfo).isoformat()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"load_unit = GW\ntrain_end = {train_end}\n")
    message = (f"prediction day {rows[-13][0].isoformat()} spans steps past 9999-12-31T23:59:59.999999, the last "
               f"instant a timestamp can hold; the first is the step after {last}")
    with pytest.raises(ParseError, match=re.escape(message)):
        run_online_evaluation(ingest_csv(data, load_config(cfg))[0], load_config(cfg))
    out, snap = tmp_path / "out", tmp_path / "run.snapshot"
    run = ["run", "--data", str(data), "--config", str(cfg), "--output-dir", str(out), "--snapshot-out", str(snap)]
    assert cli_main(run) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() and not snap.exists()
    # With a horizon of 12 the last day's forecasts end at 23:00 and its
    # learning span, through a next day that does not exist, ends with the data.
    cfg.write_text(f"load_unit = GW\ntrain_end = {train_end}\nhorizon = 12\n")
    assert cli_main(run) == 0
    forecasts = (out / "forecasts.csv").read_text().splitlines()
    assert len(forecasts) == 1 + 7 * 12 and forecasts[-1].startswith(f"{last},12,")
    assert snapshot_load(snap).cursor == rows[-13][0]


def test_report_written(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    series, _ = ingest_csv(data_csv, config)
    out = tmp_path / "outs"
    result = run_online_evaluation(series, config, output_dir=out)
    assert result.report == evaluate_forecasts(result.actual, result.mean, result.std)
    base, step = series.start, series.step
    rows = {datetime.fromisoformat(ts): (float(mean), float(std))
            for ts, _, mean, std in (row.split(",") for row in result.forecast_rows)}
    assert [rows[base + t * step] for t in result.t] == list(zip(result.mean, result.std))
    report_text = (out / "report.txt").read_text()
    assert "rmse = " in report_text
    assert "skipped_days = 0" in report_text
    cal_lines = (out / "calibration.csv").read_text().splitlines()
    assert cal_lines[0] == "q,coverage"
    assert len(cal_lines) == 100


# The series are typed and their forecast rows stamped on the step grid off
# UTC too: naive timestamps, a fixed -05:00 offset, a half-hourly step with
# scheduled horizons above 24 steps, the last one reaching past the data, and
# an offset that carries seconds with instants that carry seconds and
# microseconds. Each entry: zone, step in minutes, the first row's time of
# day (the prediction time has the same minutes, seconds and microseconds),
# and the schedule.
OFF_UTC_GRIDS = {
    "naive": (None, 60, time(0), {}),
    "fixed-05:00": (timezone(timedelta(hours=-5)), 60, time(0), {}),
    "half-hourly-long-horizons": (UTC, 30, time(0), {date(2021, 3, 10): (time(9, 30), 30),
                                                     date(2021, 3, 14): (time(20, 0), 40)}),
    "offset-and-instants-with-seconds": (timezone(timedelta(hours=5, minutes=30, seconds=15)), 60,
                                         time(0, 0, 15, 250000), {}),
}


@pytest.mark.parametrize("tz, minutes, first, schedule", OFF_UTC_GRIDS.values(), ids=OFF_UTC_GRIDS)
def test_forecast_timestamps_and_calendar_types_follow_the_step_grid(tmp_path, monkeypatch, tz, minutes, first,
                                                                     schedule):
    step, base = timedelta(minutes=minutes), datetime.combine(date(2021, 3, 1), first, tzinfo=tz)
    rng = np.random.default_rng(minutes)
    rows = []
    for i in range(14 * 24 * 60 // minutes):
        ts = base + i * step
        load = 2.0 + 0.5 * math.sin(2.0 * math.pi * (ts.hour + ts.minute / 60.0) / 24.0) + rng.normal(scale=0.01)
        rows.append((ts, load, 55.0))
    config = base_config(train_end=datetime(2021, 3, 8, tzinfo=tz), step=step, schedule=schedule,
                         prediction_time=first.replace(hour=11))
    series, _ = ingest_csv(write_small_csv(tmp_path / "series.csv", rows), config)
    typed = []
    calendar_type = harness.calendar_type

    def recording_calendar_type(ts, holidays=()):
        typed.append(ts)
        return calendar_type(ts, holidays)

    monkeypatch.setattr(harness, "calendar_type", recording_calendar_type)
    result = run_online_evaluation(series, config)

    expected_rows = []
    for day in range(14):
        at, horizon = schedule.get(date(2021, 3, 1 + day), (config.prediction_time, config.hp.horizon))
        anchor = datetime.combine(date(2021, 3, 1 + day), at, tzinfo=tz)
        if config.train_end <= anchor:
            expected_rows += [f"{(anchor + i * step).isoformat()},{i}" for i in range(1, horizon + 1)]
    assert [",".join(row.split(",")[:2]) for row in result.forecast_rows] == expected_rows
    assert [ts.isoformat() for ts in typed] == [(base + i * step).isoformat() for i in range(len(typed))]
    assert typed[-1] == datetime.fromisoformat(expected_rows[-1].split(",")[0]) > rows[-1][0]


# --- command line ------------------------------------------------------------


def test_cli_parser_is_built_once_and_keeps_nothing_between_calls():
    parser = cli._parser()
    assert cli._parser() is parser
    assert parser.parse_args(["self-check", "--seed", "3"]).seed == 3
    later = parser.parse_args(["metrics", "--forecasts", "f.csv", "--actuals", "a.csv"])
    assert later.command == "metrics" and not hasattr(later, "seed")
    assert parser.parse_args(["self-check"]).seed == 0
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--data", "series.csv"])
    assert exc.value.code == 2


def write_cli_config(tmp_path, **extra) -> Path:
    lines = [
        "load_unit = GW",
        "train_end = 2021-03-11T00:00:00+00:00",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def quarter_hourly_csv(path: Path, n_days: int) -> Path:
    """The hourly synthetic profile restamped onto a 15-minute grid."""
    rows = make_hourly_series(4 * n_days, seed=1)
    start = rows[0][0]
    return write_small_csv(path, [(start + i * timedelta(minutes=15), load, temp)
                                  for i, (_, load, temp) in enumerate(rows)])


REPORT_KEYS = ("n_points", "rmse", "mape_percent", "mean_pinball", "ece")


@pytest.mark.parametrize("extra", [
    pytest.param({"emit_quantiles": "true"}, id="quantiles"),
    pytest.param({"horizon": "48"}, id="overlapping-horizons"),
    pytest.param({"step_minutes": "15"}, id="15-minute-step"),
])
def test_cli_run_and_metrics(tmp_path, data_csv, capsys, extra):
    if "step_minutes" in extra:
        data_csv = quarter_hourly_csv(tmp_path / "quarter.csv", 14)
    cfg = write_cli_config(tmp_path, **extra)
    out_dir = tmp_path / "cli_out"
    code = cli_main([
        "run", "--data", str(data_csv), "--config", str(cfg), "--output-dir", str(out_dir),
        "--snapshot-out", str(tmp_path / "cli.snapshot"),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "rmse = " in captured
    assert (out_dir / "forecasts.csv").exists()
    assert (tmp_path / "cli.snapshot").exists()

    code = cli_main([
        "metrics", "--forecasts", str(out_dir / "forecasts.csv"), "--actuals", str(data_csv),
    ])
    assert code == 0

    def report_lines(text):
        return [line for line in text.splitlines() if line.partition(" = ")[0] in REPORT_KEYS]

    expected = report_lines((out_dir / "report.txt").read_text())
    assert len(expected) == len(REPORT_KEYS)
    assert report_lines(capsys.readouterr().out) == expected


def test_cli_run_whose_test_loads_are_all_zero_reports_nan_mape(tmp_path, capsys):
    train_end = datetime(2021, 3, 21, tzinfo=UTC)
    rows = [(ts, 0.0 if ts >= train_end else load, temp) for ts, load, temp in make_hourly_series(40)]
    data = write_small_csv(tmp_path / "series.csv", rows)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"load_unit = GW\ntrain_end = {train_end.isoformat()}\n")
    out, snap = tmp_path / "out", tmp_path / "run.snapshot"
    assert cli_main(["run", "--data", str(data), "--config", str(cfg), "--output-dir", str(out),
                     "--snapshot-out", str(snap)]) == 0
    assert snap.is_file()
    report_lines = (out / "report.txt").read_text().splitlines()[:6]
    report = dict(line.split(" = ", 1) for line in report_lines)
    assert report["mape_percent"] == "nan"
    assert report["n_mape_excluded"] == report["n_points"] != "0"
    capsys.readouterr()
    assert cli_main(["metrics", "--forecasts", str(out / "forecasts.csv"), "--actuals", str(data)]) == 0
    assert capsys.readouterr().out.splitlines() == report_lines


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines))
    return path


def metrics_by_instant(forecast_lines, actual_lines) -> list[str]:
    """The metrics report of forecast rows scored against the actual load at the equal
    instant, matched by datetime equality: naive and offset-aware never match."""
    actuals = {datetime.fromisoformat(ts): float(load)
               for ts, load, *_ in (line.split(",") for line in actual_lines[1:]) if load}
    rows = [(actuals[ts], float(mean), float(std))
            for ts, mean, std in ((datetime.fromisoformat(f[0]), f[2], f[3])
                                  for f in (line.split(",") for line in forecast_lines[1:]))
            if ts in actuals]
    return evaluate_forecasts(*zip(*rows)).lines()


def naive(ts: str) -> str:
    return datetime.fromisoformat(ts).replace(tzinfo=None).isoformat()


def shifted(ts: str, **delta) -> str:
    return (datetime.fromisoformat(ts) + timedelta(**delta)).isoformat()


# Each case: (forecast timestamp edit by row number k, actual row filter by row
# number k), applied to one-step forecasts of every actual from day 2 on.
AWKWARD_ACTUALS = {
    "actuals-with-missing-rows": (lambda k, ts: ts, lambda k: k % 7 != 3),
    "forecasts-off-the-grid": (lambda k, ts: shifted(ts, minutes=30) if k % 5 == 0 else
                               shifted(ts, seconds=30) if k % 5 == 1 else ts, lambda k: True),
    "forecasts-outside-the-span": (lambda k, ts: shifted(ts, days=-20) if k % 4 == 0 else
                                   shifted(ts, days=20) if k % 4 == 1 else ts, lambda k: k % 11 != 0),
    "naive-forecasts-among-aware": (lambda k, ts: naive(ts) if k % 3 == 0 else ts, lambda k: True),
    "another-offset-for-the-same-instant": (
        lambda k, ts: datetime.fromisoformat(ts).astimezone(timezone(timedelta(hours=-5))).isoformat(),
        lambda k: k % 9 != 0),
}


@pytest.mark.parametrize("edit_forecast, keep_actual", AWKWARD_ACTUALS.values(), ids=AWKWARD_ACTUALS)
def test_cli_metrics_scores_each_forecast_against_the_actual_at_its_instant(tmp_path, data_csv, capsys,
                                                                            edit_forecast, keep_actual):
    header, *rows = data_csv.read_text().splitlines()
    actual_lines = [header] + [row for k, row in enumerate(rows) if keep_actual(k)]
    rng = np.random.default_rng(3)
    forecast_lines = ["timestamp,horizon,mean,std"] + [
        f"{edit_forecast(k, ts)},1,{float(load) + rng.normal(scale=0.05)!r},{0.05 + 0.01 * (k % 4)!r}"
        for k, (ts, load, _) in enumerate(row.split(",") for row in rows[48:])]
    forecasts = write_lines(tmp_path / "forecasts.csv", forecast_lines)
    actuals = write_lines(tmp_path / "actuals.csv", actual_lines)
    expected = metrics_by_instant(forecast_lines, actual_lines)
    assert 100 < int(expected[0].split(" = ")[1]) < len(rows) - 48
    assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(actuals)]) == 0
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("case", ["naive-forecasts-for-aware-actuals", "aware-forecasts-for-naive-actuals",
                                  "no-actual-rows", "only-blank-actual-loads", "forecasts-before-the-actuals"])
def test_cli_metrics_with_no_overlap_is_an_empty_span(tmp_path, data_csv, capsys, case):
    header, *rows = data_csv.read_text().splitlines()
    stamps = [row.split(",")[0] for row in rows]
    if case == "naive-forecasts-for-aware-actuals":
        stamps = [naive(ts) for ts in stamps]
    elif case == "aware-forecasts-for-naive-actuals":
        rows = [naive(row.split(",", 1)[0]) + "," + row.split(",", 1)[1] for row in rows]
    elif case == "no-actual-rows":
        rows = []
    elif case == "only-blank-actual-loads":
        rows = [f"{ts},,55.0" for ts in stamps]
    else:
        stamps = [shifted(ts, days=-30) for ts in stamps]
    forecasts = write_lines(tmp_path / "forecasts.csv", ["timestamp,horizon,mean,std"] +
                            [f"{ts},1,2.0,0.1" for ts in stamps])
    actuals = write_lines(tmp_path / "actuals.csv", [header] + rows)
    assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(actuals)]) == 2
    assert "no overlapping (forecast, actual) timestamps" in capsys.readouterr().err


def test_cli_metrics_scores_an_overflowing_error_as_inf(tmp_path, capsys):
    actuals = write_lines(tmp_path / "actuals.csv", ["timestamp,load", "2021-03-01T12:00:00+00:00,1e200"])
    forecasts = write_lines(tmp_path / "forecasts.csv", ["timestamp,horizon,mean,std",
                                                         "2021-03-01T12:00:00+00:00,1,1.0,0.5"])
    assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(actuals)]) == 0
    assert "rmse = inf" in capsys.readouterr().out.splitlines()


def test_cli_metrics_keeps_at_most_48_bytes_per_extra_forecast_row(tmp_path, capsys):
    # 3,000 forecast rows of a run, scored against its actuals as written and
    # repeated 8 times: the 21,000 extra rows may raise the peak of traced
    # allocations by at most 48 B each, so no row is kept as a Python object.
    data = write_small_csv(tmp_path / "series.csv", make_hourly_series(136, seed=1))
    cfg = write_cli_config(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--data", str(data), "--config", str(cfg), "--output-dir", str(out)]) == 0
    header, *rows = (out / "forecasts.csv").read_text().splitlines()
    rows = rows[:3000]
    assert len(rows) == 3000
    once = write_lines(tmp_path / "once.csv", [header] + rows)
    eight = write_lines(tmp_path / "eight.csv", [header] + rows * 8)

    def peak(forecasts: Path) -> int:
        tracemalloc.start()
        try:
            assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(data)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_once = peak(once)
    assert (peak(eight) - peak_once) / (7 * 3000) <= 48
    n_points = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n_points = ")]
    assert n_points[-2:] == ["n_points = 3000", "n_points = 24000"]


def test_cli_metrics_oversized_forecast_field_is_a_parse_error_naming_the_line(tmp_path, data_csv, capsys):
    forecasts = write_lines(tmp_path / "forecasts.csv", ["timestamp,horizon,mean,std",
                                                         "2021-03-01T01:00:00+00:00,1,1.5,0.1",
                                                         f"2021-03-01T02:00:00+00:00,2,{OVERSIZED_FIELD},0.1"])
    assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(data_csv)]) == 2
    assert f"{forecasts}:3: field larger than field limit" in capsys.readouterr().err


def test_cli_metrics_errors_name_the_line_after_a_quoted_field_spanning_lines(tmp_path, data_csv, capsys):
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text(
        "timestamp,horizon,mean,std\n"
        '2021-03-01T01:00:00+00:00,1,1.5,"0.1\n"\n'
        "2021-03-01T02:00:00+00:00,2,nan,0.1\n"
    )
    assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(data_csv)]) == 2
    assert f"{forecasts}:4: mean must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("mean, std", [
    ("nan", "0.1"), ("inf", "0.1"), ("-inf", "0.1"), ("1.5", "nan"), ("1.5", "inf"), ("1.5", "-0.1"),
])
def test_cli_metrics_rejects_bad_forecast_rows(tmp_path, data_csv, capsys, mean, std):
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text(
        "timestamp,horizon,mean,std\n"
        "2021-03-01T01:00:00+00:00,1,1.5,0.1\n"
        f"2021-03-01T02:00:00+00:00,2,{mean},{std}\n"
    )
    assert cli_main(["metrics", "--forecasts", str(forecasts), "--actuals", str(data_csv)]) == 2
    assert f"{forecasts}:3: mean must be finite" in capsys.readouterr().err


def test_cli_resume_matches_full_run(tmp_path, data_csv):
    cfg_full = write_cli_config(tmp_path)
    out_full = tmp_path / "full"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg_full),
                     "--output-dir", str(out_full)]) == 0

    cfg_first = write_cli_config(tmp_path, test_end="2021-03-13T00:00:00+00:00")
    out_first = tmp_path / "first"
    snap = tmp_path / "mid.snapshot"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg_first),
                     "--output-dir", str(out_first), "--snapshot-out", str(snap)]) == 0

    cfg_second = write_cli_config(tmp_path)
    out_second = tmp_path / "second"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg_second),
                     "--output-dir", str(out_second), "--resume", str(snap)]) == 0

    full_rows = (out_full / "forecasts.csv").read_text().splitlines()
    first_rows = (out_first / "forecasts.csv").read_text().splitlines()
    second_rows = (out_second / "forecasts.csv").read_text().splitlines()
    assert first_rows[1:] + second_rows[1:] == full_rows[1:]


def test_a_resume_with_no_prediction_day_after_the_cursor_is_an_empty_span_and_writes_nothing(tmp_path, data_csv,
                                                                                             capsys):
    # The natural daily loop resumes from and writes to one snapshot; a day
    # already run must leave both it and the output directory as they were.
    cfg = write_cli_config(tmp_path)
    snap, out = tmp_path / "full.snapshot", tmp_path / "out"
    run = ["run", "--data", str(data_csv), "--config", str(cfg), "--snapshot-out", str(snap), "--output-dir", str(out)]
    assert cli_main(run) == 0
    written = {p: p.read_bytes() for p in [snap, *out.iterdir()]}
    cursor = snapshot_load(snap).cursor.isoformat()
    with pytest.raises(EmptySpan, match=re.escape(f"no prediction day after the snapshot's cursor {cursor}")):
        run_online_evaluation(ingest_csv(data_csv, load_config(cfg))[0], load_config(cfg), resume=snap)
    capsys.readouterr()
    assert cli_main([*run, "--resume", str(snap)]) == 2
    assert f"no prediction day after the snapshot's cursor {cursor}" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in [snap, *out.iterdir()]} == written


def test_a_run_whose_outputs_cannot_be_written_leaves_the_snapshot_out_file(tmp_path, data_csv, capsys):
    # A snapshot whose cursor is past days whose forecasts were never written
    # would make the next resumed run skip them: the outputs come first.
    snap = tmp_path / "run.snapshot"
    first = write_cli_config(tmp_path, test_end="2021-03-13T00:00:00+00:00")
    assert cli_main(["run", "--data", str(data_csv), "--config", str(first), "--snapshot-out", str(snap)]) == 0
    kept = snap.read_bytes()
    not_a_directory = tmp_path / "out"
    not_a_directory.write_text("a file\n")
    capsys.readouterr()
    assert cli_main(["run", "--data", str(data_csv), "--config", str(write_cli_config(tmp_path)),
                     "--snapshot-out", str(snap), "--output-dir", str(not_a_directory)]) == 2
    assert "File exists" in capsys.readouterr().err
    assert snap.read_bytes() == kept
    assert not_a_directory.read_text() == "a file\n"


def test_a_forecasts_write_that_fails_partway_leaves_the_old_file(tmp_path, data_csv, monkeypatch):
    # As when the disk fills up partway: ten rows are formatted, then writing raises.
    config = load_config(write_cli_config(tmp_path))
    series, _ = ingest_csv(data_csv, config)
    out, snap = tmp_path / "out", tmp_path / "run.snapshot"
    run_online_evaluation(series, config, output_dir=out)
    written, listing = {p: p.read_bytes() for p in out.iterdir()}, sorted(tmp_path.iterdir())
    real_format = harness.ForecastRows._format

    def format_part(self, lo, hi):
        yield from real_format(self, lo, min(hi, lo + 10))
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(harness.ForecastRows, "_format", format_part)
    with pytest.raises(OSError, match="No space left on device"):
        run_online_evaluation(series, config, output_dir=out, snapshot_out=snap)
    monkeypatch.undo()
    assert {p: p.read_bytes() for p in out.iterdir()} == written
    assert sorted(tmp_path.iterdir()) == listing


def series_40d_csv(path: Path, aware: bool) -> Path:
    """`scripts/make_synthetic.py --days 40`, whose timestamps end in +00:00, or those timestamps naive."""
    rows = make_hourly_series(40)
    if not aware:
        rows = [(ts.replace(tzinfo=None), load, temp) for ts, load, temp in rows]
    return write_small_csv(path, rows)


@pytest.mark.parametrize("setting", ["train_end", "test_end", "frozen_after"])
@pytest.mark.parametrize("data_aware", [True, False], ids=["naive-setting", "aware-setting"])
def test_cli_setting_naive_where_the_data_is_aware_or_back_is_input_error(tmp_path, capsys, setting, data_aware):
    data = series_40d_csv(tmp_path / "series.csv", data_aware)
    values = {"train_end": "2021-03-21T00:00:00", "test_end": "2021-04-05T00:00:00",
              "frozen_after": "2021-03-28T00:00:00"}
    # Every setting matches the data but the one under test, which has the other awareness.
    values = {k: v + ("+00:00" if (k == setting) != data_aware else "") for k, v in values.items()}
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"load_unit = GW\ntrain_end = {values['train_end']}\ntest_end = {values['test_end']}\n")
    argv = ["run", "--data", str(data), "--config", str(cfg), "--frozen-after", values["frozen_after"]]
    assert cli_main(argv) == 2
    kind = ("naive", "offset-aware") if data_aware else ("offset-aware", "naive")
    assert f"{setting} {values[setting]} is {kind[0]}, but the data timestamps are {kind[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("data_aware", [True, False], ids=["naive-cursor", "aware-cursor"])
def test_cli_resume_with_a_cursor_naive_where_the_data_is_aware_or_back_is_input_error(tmp_path, capsys, data_aware):
    def run(aware: bool, *args: str) -> int:
        data = series_40d_csv(tmp_path / f"series_{aware}.csv", aware)
        cfg = tmp_path / f"run_{aware}.cfg"
        cfg.write_text(f"load_unit = GW\ntrain_end = 2021-03-21T00:00:00{'+00:00' if aware else ''}\n")
        return cli_main(["run", "--data", str(data), "--config", str(cfg), *args])

    snap = tmp_path / "first.snapshot"
    assert run(not data_aware, "--snapshot-out", str(snap)) == 0
    assert run(data_aware, "--resume", str(snap)) == 2
    assert "snapshot cursor" in capsys.readouterr().err


def test_cli_missing_file_is_input_error(tmp_path):
    cfg = write_cli_config(tmp_path)
    assert cli_main(["run", "--data", str(tmp_path / "nope.csv"), "--config", str(cfg)]) == 2


def test_cli_bad_header_is_input_error(tmp_path):
    cfg = write_cli_config(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli_main(["run", "--data", str(bad), "--config", str(cfg)]) == 2


def test_a_byte_order_mark_before_the_header_changes_no_output(tmp_path, data_csv, capsys):
    # Spreadsheet exports often start a CSV with the UTF-8 byte-order mark.
    def marked(path: Path) -> Path:
        copy = path.with_name("marked_" + path.name)
        copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return copy

    cfg, outputs = write_cli_config(tmp_path), []
    for data in (data_csv, marked(data_csv)):
        out = tmp_path / data.stem
        assert cli_main(["run", "--data", str(data), "--config", str(cfg), "--output-dir", str(out)]) == 0
        forecasts = out / "forecasts.csv"
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outputs[0] == outputs[1]
    capsys.readouterr()
    printed = []
    for args in ((forecasts, data_csv), (marked(forecasts), marked(data_csv))):
        assert cli_main(["metrics", "--forecasts", str(args[0]), "--actuals", str(args[1])]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0]


def _package_errors() -> list:
    """Every exception class defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(aplf.__path__):
        module = importlib.import_module(f"aplf.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == module.__name__]
    return found


PACKAGE_ERRORS = _package_errors()


def test_every_package_error_derives_from_exactly_one_exit_code_base():
    names = {error.__name__ for error in PACKAGE_ERRORS}
    assert names >= {"InputError", "NumericError", "ParseError", "NonMonotoneTimestamps", "UnitMissing", "EmptySpan",
                     "VersionMismatch", "ShapeMismatch", "CorruptSnapshot", "EmptyInput", "DegenerateUpdate",
                     "SingularGram", "DegenerateVariances", "ColdStart"}
    for error in set(PACKAGE_ERRORS) - {InputError, NumericError}:
        assert issubclass(error, InputError) != issubclass(error, NumericError), error


@pytest.mark.parametrize("error", [*PACKAGE_ERRORS, OSError, ValueError], ids=lambda error: error.__name__)
def test_cli_exits_2_on_an_input_error_and_3_on_a_numeric_error(tmp_path, data_csv, capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(harness, "run_online_evaluation", fail)
    assert cli_main(["run", "--data", str(data_csv), "--config", str(write_cli_config(tmp_path))]) == (
        3 if issubclass(error, NumericError) else 2)
    assert capsys.readouterr().err == "error: boom\n"


def test_cli_self_check_passes():
    assert cli_main(["self-check"]) == 0


@pytest.mark.parametrize("init_mode", ["zero", "batch"])
def test_cli_run_loads_neither_the_oracles_nor_numpy(tmp_path, data_csv, init_mode):
    # Only self-check needs the oracles, and no run needs numpy: a run in a fresh
    # interpreter imports neither. The batch-init run must have solved a buffer, or
    # it would not have reached the closed-form solve.
    if init_mode == "batch":
        data_csv = tmp_path / "batch.csv"
        write_batch_init_series(data_csv)
    cfg = write_cli_config(tmp_path, init_mode=init_mode, temperature_unit="C")
    code = ("import sys; from aplf import cli, recursive_learner as rl; solved = []; solve = rl.batch_initialize\n"
            "def counting(samples, lam):\n"
            "    out = solve(samples, lam); solved.append(out); return out\n"
            "rl.batch_initialize = counting\n"
            f"rc = cli.main(['run', '--data', {str(data_csv)!r}, '--config', {str(cfg)!r}])\n"
            "loaded = ' '.join(sorted({'aplf.oracles', 'numpy'} & set(sys.modules)))\n"
            f"sys.exit(rc or loaded or ({init_mode!r} == 'batch' and not solved and 'no buffer was solved') or None)")
    done = subprocess.run([sys.executable, "-c", code], env=src_path_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
