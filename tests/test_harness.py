"""Ingestion, configuration, snapshots, the rolling loop, and the CLI."""

import copy
import hashlib
import json
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from aplf import harness
from aplf.cli import main as cli_main
from aplf.harness import (
    CorruptSnapshot,
    EmptySpan,
    NonMonotoneTimestamps,
    ParseError,
    RunConfig,
    ShapeMismatch,
    UnitMissing,
    VersionMismatch,
    ingest_csv,
    load_config,
    run_online_evaluation,
    snapshot_load,
    snapshot_save,
)
from aplf.model_types import HyperParams
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
    "calendar_types = 0",
    "horizon = -1",
    "prediction_time = 25:00",
    "init_mode = lazy",
    "holidays = 2021-02-30",
])
def test_load_config_errors_name_the_line(tmp_path, bad_line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# line 1\nload_unit = GW\n{bad_line}\n")
    with pytest.raises(ParseError, match=r"bad\.cfg:3: "):
        load_config(cfg)


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_schedule_horizon_below_one_names_the_line(tmp_path, horizon):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text(f"2021-03-12,06:00,6\n2021-03-13,06:00,{horizon}\n")
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(f"load_unit = GW\nschedule_file = {schedule}\n")
    with pytest.raises(ParseError, match=r"schedule\.csv:2: horizon"):
        load_config(cfg)


# --- ingestion ---------------------------------------------------------------


def test_ingest_well_formed_file(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text(
        "timestamp,load,temperature\n"
        "2021-03-01T00:00:00+00:00,1.5,40.0\n"
        "2021-03-01T01:00:00+00:00,1.6,41.0\n"
        "2021-03-01T02:00:00+00:00,1.7,\n"
    )
    records, gaps = ingest_csv(path, base_config())
    assert len(records) == 3
    assert gaps == []
    assert records[2].temperature is None


def test_ingest_out_of_order_rows_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T03:00:00+00:00,1.5\n"
        "2021-03-01T02:00:00+00:00,1.6\n"
    )
    with pytest.raises(NonMonotoneTimestamps, match=":3:"):
        ingest_csv(path, base_config())


def test_ingest_reports_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T00:00:00+00:00,1.5\n"
        "2021-03-01T02:00:00+00:00,1.6\n"
    )
    records, gaps = ingest_csv(path, base_config())
    assert len(records) == 2
    assert gaps == [{"after": datetime(2021, 3, 1, tzinfo=UTC), "missing_steps": 1}]


def test_ingest_rejects_off_grid_timestamp(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text(
        "timestamp,load\n"
        "2021-03-01T00:00:00+00:00,1.5\n"
        "2021-03-01T01:30:00+00:00,1.6\n"
    )
    with pytest.raises(ParseError, match=":3:"):
        ingest_csv(path, base_config())


def test_ingest_requires_load_unit(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("timestamp,load\n2021-03-01T00:00:00+00:00,1.0\n")
    with pytest.raises(UnitMissing):
        ingest_csv(path, base_config(load_unit=None))


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


def test_ingest_converts_celsius(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("timestamp,load,temperature\n2021-03-01T00:00:00+00:00,1.0,10.0\n")
    records, _ = ingest_csv(path, base_config(temperature_unit="C"))
    assert records[0].temperature == 50.0


def test_ingest_rejects_unknown_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,value\n2021-03-01T00:00:00+00:00,1.0\n")
    with pytest.raises(ParseError, match=":1:"):
        ingest_csv(path, base_config())


# --- snapshots ---------------------------------------------------------------


def test_snapshot_round_trip_is_bit_identical(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(records, config, snapshot_out=snap_path)
    snap = snapshot_load(snap_path)
    snapshot_save(tmp_path / "again.snapshot", snap.model, snap.state, snap.tracker, snap.hp,
                  cursor=snap.cursor, pending=snap.pending)
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


def test_snapshot_shape_mismatch(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(records, config, snapshot_out=snap_path)
    with pytest.raises(ShapeMismatch):
        snapshot_load(snap_path, expect_r_dim=4)
    with pytest.raises(ShapeMismatch):
        snapshot_load(snap_path, expect_calendar_types=24)


def test_snapshot_truncated_file_is_corrupt(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(records, config, snapshot_out=snap_path)
    clipped = tmp_path / "clipped.snapshot"
    clipped.write_text(snap_path.read_text()[:200])
    with pytest.raises(CorruptSnapshot):
        snapshot_load(clipped)


def test_snapshot_tampered_payload_is_corrupt(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(records, config, snapshot_out=snap_path)
    doc = json.loads(snap_path.read_text())
    doc["payload"]["r_dim"] = 9
    snap_path.write_text(json.dumps(doc))
    with pytest.raises(CorruptSnapshot):
        snapshot_load(snap_path)


def test_snapshot_version_mismatch(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    snap_path = tmp_path / "model.snapshot"
    run_online_evaluation(records, config, snapshot_out=snap_path)
    doc = json.loads(snap_path.read_text())
    doc["version"] = 99
    snap_path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        snapshot_load(snap_path)


# A 2-type snapshot written by format version 1 as first released: batch
# init mode after three 4-step learn_steps, so both transition channels are
# initialized and both observation channels still hold pending samples.
SNAPSHOT_V1 = Path(__file__).parent / "data" / "snapshot_v1.json"


def _rewrite_payload(src: Path, dst: Path, edit) -> Path:
    """Copy a snapshot with its payload edited and its checksum recomputed."""
    doc = json.loads(src.read_text())
    edit(doc["payload"])
    body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    dst.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return dst


def test_v1_snapshot_resaves_byte_identically(tmp_path):
    snap = snapshot_load(SNAPSHOT_V1, expect_calendar_types=2, expect_r_dim=3)
    assert sorted(snap.pending) == [("r", 1), ("r", 2)]
    snapshot_save(tmp_path / "again.snapshot", snap.model, snap.state, snap.tracker, snap.hp,
                  cursor=snap.cursor, pending=snap.pending)
    assert (tmp_path / "again.snapshot").read_bytes() == SNAPSHOT_V1.read_bytes()


@pytest.mark.parametrize("edit", [
    lambda p: p["model"]["s_channels"].pop(),
    lambda p: p["model"]["r_channels"][1]["eta"].pop(),
    lambda p: p["state"]["s_states"][0].update(P=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    lambda p: p["state"]["r_states"].append(p["state"]["r_states"][0]),
    lambda p: p["tracker"]["counts"].pop(),
    lambda p: p["tracker"]["sums"].append(1.0),
    lambda p: p["pending_batch"]["r:1"][0][0].pop(),
    lambda p: p["pending_batch"].update({"r:3": []}),
    lambda p: p["hyper_params"].update(n_calendar_types=48),
    lambda p: p["state"]["r_states"][1]["P"][0].__setitem__(2, 0.5),
], ids=["short-s-channels", "short-r-eta", "3x3-P-on-K2", "extra-r-state", "short-tracker-counts",
        "long-tracker-sums", "short-pending-vector", "pending-type-out-of-range", "hyper-params-types",
        "asymmetric-P"])
def test_snapshot_contradicting_its_header_is_corrupt(tmp_path, edit):
    bad = _rewrite_payload(SNAPSHOT_V1, tmp_path / "bad.snapshot", edit)
    with pytest.raises(CorruptSnapshot):
        snapshot_load(bad)


def test_cli_resume_from_a_short_snapshot_is_input_error(tmp_path, data_csv, capsys):
    cfg = write_cli_config(tmp_path, test_end="2021-03-13T00:00:00+00:00")
    snap = tmp_path / "mid.snapshot"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg), "--snapshot-out", str(snap)]) == 0
    short = _rewrite_payload(snap, tmp_path / "short.snapshot", lambda p: p["model"]["s_channels"].pop())
    capsys.readouterr()
    assert cli_main(["run", "--data", str(data_csv), "--config", str(write_cli_config(tmp_path)),
                     "--resume", str(short)]) == 2
    assert "malformed payload" in capsys.readouterr().err


def test_cli_resume_under_other_hyper_params_is_input_error(tmp_path, data_csv, capsys):
    cfg = write_cli_config(tmp_path, test_end="2021-03-13T00:00:00+00:00")
    snap = tmp_path / "mid.snapshot"
    assert cli_main(["run", "--data", str(data_csv), "--config", str(cfg), "--snapshot-out", str(snap)]) == 0
    other = write_cli_config(tmp_path, lambda_s=0.9, lambda_r=0.95, trace_reset_threshold=1000)
    capsys.readouterr()
    assert cli_main(["run", "--data", str(data_csv), "--config", str(other), "--resume", str(snap)]) == 2
    assert "lambda_s, lambda_r, trace_reset_threshold" in capsys.readouterr().err


# --- the rolling loop --------------------------------------------------------


def test_two_runs_are_byte_identical(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    run_online_evaluation(records, config, output_dir=out1)
    run_online_evaluation(records, config, output_dir=out2)
    assert (out1 / "forecasts.csv").read_bytes() == (out2 / "forecasts.csv").read_bytes()
    assert (out1 / "calibration.csv").read_bytes() == (out2 / "calibration.csv").read_bytes()


def test_split_run_resumes_byte_identically(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    full = run_online_evaluation(records, config)

    split_at = datetime(2021, 3, 13, tzinfo=UTC)
    config_first = base_config(train_end=config.train_end, test_end=split_at)
    snap_path = tmp_path / "split.snapshot"
    first = run_online_evaluation(records, config_first, snapshot_out=snap_path)
    second = run_online_evaluation(records, config, resume=snap_path)
    assert first.forecast_rows + second.forecast_rows == full.forecast_rows


def test_parameters_never_see_loads_after_the_prediction_time(data_csv, tmp_path, monkeypatch):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)

    captured = {}
    real_predict = harness.predict

    def spy(model, instance, calendar_fn, encoder, state=None):
        captured[instance.t] = copy.deepcopy(model)
        return real_predict(model, instance, calendar_fn, encoder, state=state)

    monkeypatch.setattr(harness, "predict", spy)
    base = records[0].timestamp
    run_online_evaluation(records, config)
    monkeypatch.setattr(harness, "predict", real_predict)
    assert captured

    for t_idx, seen_model in list(captured.items())[:2]:
        anchor_ts = base + t_idx * timedelta(hours=1)
        visible = [r for r in records if r.timestamp <= anchor_ts]
        snap_path = tmp_path / f"replay_{t_idx}.snapshot"
        replay_config = base_config(train_end=config.train_end)
        run_online_evaluation(visible, replay_config, snapshot_out=snap_path)
        replayed = snapshot_load(snap_path).model
        for a, b in zip(seen_model.s_channels + seen_model.r_channels,
                        replayed.s_channels + replayed.r_channels):
            assert np.array_equal(a.eta, b.eta)
            assert a.sigma == b.sigma


def test_zero_length_test_span_raises(data_csv):
    config = base_config(
        train_end=datetime(2021, 3, 11, tzinfo=UTC),
        test_end=datetime(2021, 3, 11, tzinfo=UTC),
    )
    records, _ = ingest_csv(data_csv, config)
    with pytest.raises(EmptySpan):
        run_online_evaluation(records, config)


def test_missing_anchor_day_is_skipped_and_counted(tmp_path, series_14d):
    rows = [r for r in series_14d if not (r[0].day == 12 and r[0].hour == 11)]
    path = tmp_path / "holes.csv"
    write_series_csv(path, rows)
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, gaps = ingest_csv(path, config)
    assert gaps
    result = run_online_evaluation(records, config, gaps=gaps)
    assert result.notes["skipped_days"] == 1
    assert result.notes["n_gap_steps"] == 1


# The last anchor (day 14, 11:00) predicts 12 steps past the last record;
# with test_end on day 14 the last anchor is day 13's, inside the records.
@pytest.mark.parametrize("test_end, steps_past_records", [
    (None, 12),
    (datetime(2021, 3, 14, tzinfo=UTC), 0),
])
def test_each_grid_step_is_typed_once(data_csv, monkeypatch, test_end, steps_past_records):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC), test_end=test_end)
    records, _ = ingest_csv(data_csv, config)
    typed = []
    real_calendar_type = harness.calendar_type

    def spy(ts, holidays):
        typed.append(ts)
        return real_calendar_type(ts, holidays)

    monkeypatch.setattr(harness, "calendar_type", spy)
    run_online_evaluation(records, config)
    assert len(typed) == len(set(typed)) == len(records) + steps_past_records


def test_dropped_row_equals_blank_row(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    k = next(i for i, r in enumerate(records) if r.timestamp == datetime(2021, 3, 12, 15, tzinfo=UTC))
    dropped = records[:k] + records[k + 1:]
    blanked = records[:k] + [harness.SeriesRecord(records[k].timestamp, None, None)] + records[k + 1:]
    a = run_online_evaluation(dropped, config, snapshot_out=tmp_path / "dropped.snapshot")
    b = run_online_evaluation(blanked, config, snapshot_out=tmp_path / "blanked.snapshot")
    assert a.forecast_rows == b.forecast_rows
    assert a.notes == b.notes
    assert (tmp_path / "dropped.snapshot").read_bytes() == (tmp_path / "blanked.snapshot").read_bytes()


def test_short_last_horizon_with_records_past_it(tmp_path, data_csv):
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("2021-03-14,06:00,2\n")
    cfg = tmp_path / "sched.cfg"
    cfg.write_text(f"load_unit = GW\ntrain_end = 2021-03-11T00:00:00+00:00\nschedule_file = {schedule}\n")
    config = load_config(cfg)
    records, _ = ingest_csv(data_csv, config)
    result = run_online_evaluation(records, config)
    assert result.forecast_rows[-1].startswith("2021-03-14T08:00:00+00:00,2,")
    assert records[-1].timestamp == datetime(2021, 3, 14, 23, tzinfo=UTC)


def test_quantile_emission_adds_columns(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC), emit_quantiles=True)
    records, _ = ingest_csv(data_csv, config)
    out = tmp_path / "qrun"
    result = run_online_evaluation(records, config, output_dir=out)
    header = (out / "forecasts.csv").read_text().splitlines()[0]
    assert header.startswith("timestamp,horizon,mean,std,q01,")
    assert header.endswith(",q99")
    first_row = (out / "forecasts.csv").read_text().splitlines()[1]
    assert len(first_row.split(",")) == 4 + 99
    # Emitted quantile columns are non-decreasing across the grid.
    values = [float(v) for v in first_row.split(",")[4:]]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_frozen_after_stops_learning(data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    online = run_online_evaluation(records, config)
    frozen = run_online_evaluation(records, config, frozen_after=config.train_end)
    assert online.forecast_rows != frozen.forecast_rows


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
    records, _ = ingest_csv(data_csv, config)
    result = run_online_evaluation(records, config)
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


def test_report_written(tmp_path, data_csv):
    config = base_config(train_end=datetime(2021, 3, 11, tzinfo=UTC))
    records, _ = ingest_csv(data_csv, config)
    out = tmp_path / "outs"
    result = run_online_evaluation(records, config, output_dir=out)
    assert result.report is not None
    report_text = (out / "report.txt").read_text()
    assert "rmse = " in report_text
    assert "skipped_days = 0" in report_text
    cal_lines = (out / "calibration.csv").read_text().splitlines()
    assert cal_lines[0] == "q,coverage"
    assert len(cal_lines) == 100


# --- command line ------------------------------------------------------------


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


def test_cli_missing_file_is_input_error(tmp_path):
    cfg = write_cli_config(tmp_path)
    assert cli_main(["run", "--data", str(tmp_path / "nope.csv"), "--config", str(cfg)]) == 2


def test_cli_bad_header_is_input_error(tmp_path):
    cfg = write_cli_config(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert cli_main(["run", "--data", str(bad), "--config", str(cfg)]) == 2


def test_cli_self_check_passes():
    assert cli_main(["self-check"]) == 0
