"""Command line interface: run, self-check, metrics.

Exit codes: 0 success, 2 input error (files, config, snapshots),
3 numerical degeneracy (corrupted state, degenerate variances, or a
failed self-check).
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from bisect import bisect_left
from datetime import datetime, timedelta
from pathlib import Path

from . import harness
from .forecaster import ColdStart, DegenerateVariances
from .metrics import EmptyInput, evaluate_forecasts
from .oracles import self_check
from .recursive_learner import DegenerateUpdate, SingularGram

_INPUT_ERRORS = (
    harness.ParseError,
    harness.NonMonotoneTimestamps,
    harness.UnitMissing,
    harness.EmptySpan,
    harness.VersionMismatch,
    harness.ShapeMismatch,
    harness.CorruptSnapshot,
    EmptyInput,
    FileNotFoundError,
    ValueError,
)

_NUMERIC_ERRORS = (
    DegenerateUpdate,
    DegenerateVariances,
    SingularGram,
    ColdStart,
)


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    series, gaps = harness.ingest_csv(args.data, config)
    frozen_after = datetime.fromisoformat(args.frozen_after) if args.frozen_after else None
    output_dir = Path(args.output_dir) if args.output_dir else config.output_dir
    result = harness.run_online_evaluation(
        series,
        config,
        frozen_after=frozen_after,
        resume=args.resume,
        snapshot_out=args.snapshot_out,
        output_dir=output_dir,
        gaps=gaps,
    )
    if result.report is not None:
        for line in result.report.lines():
            print(line)
    for key, value in result.notes.items():
        print(f"{key} = {value}")
    if output_dir is not None:
        print(f"outputs written to {output_dir}")
    return 0


def _cmd_self_check(args) -> int:
    return 0 if self_check(seed=args.seed) else 3


def _read_forecasts(path: Path) -> list:
    """Every (timestamp, mean, std) row of a forecasts.csv, in file order.

    A row whose mean or std is not finite, or whose std is negative, and a
    row the csv module cannot read, are ParseErrors naming the row's last
    line (a quoted field may span lines).
    """
    out = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or header[:4] != ["timestamp", "horizon", "mean", "std"]:
                raise harness.ParseError(f"{path}:1: expected forecasts.csv header timestamp,horizon,mean,std")
            for row in reader:
                if not row:
                    continue
                try:
                    ts, mean, std = datetime.fromisoformat(row[0]), float(row[2]), float(row[3])
                except (ValueError, IndexError) as exc:
                    raise harness.ParseError(f"{path}:{reader.line_num}: {exc}") from exc
                if not (math.isfinite(mean) and math.isfinite(std) and std >= 0.0):
                    raise harness.ParseError(f"{path}:{reader.line_num}: mean must be finite and std finite "
                                             f"and >= 0, got mean {row[2]}, std {row[3]}")
                out.append((ts, mean, std))
        except csv.Error as exc:
            raise harness.ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return out


def _cmd_metrics(args) -> int:
    forecasts = _read_forecasts(Path(args.forecasts))
    # One minute is the finest step a run accepts, so this grid admits the
    # actuals of any run. A forecast row is scored against the actual row at
    # its own instant, found by its step index in the series' sorted index
    # column; a row off the grid, outside the series or with the other
    # awareness (naive or offset-aware) has none.
    step = timedelta(minutes=1)
    series = harness.read_series(args.actuals, harness.RunConfig(load_unit="MW", step=step))
    rows = []
    for ts, mean, std in forecasts:
        try:
            i, rem = divmod(ts - series.start, step)
        except TypeError:
            continue
        k = bisect_left(series.index, i)
        if not rem and k < len(series) and series.index[k] == i and series.load[k] is not None:
            rows.append((series.load[k], mean, std))
    if not rows:
        raise harness.EmptySpan("no overlapping (forecast, actual) timestamps")
    report = evaluate_forecasts(*zip(*rows))
    for line in report.lines():
        print(line)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="aplf", description="Online probabilistic load forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the rolling online learn/predict evaluation")
    run_p.add_argument("--data", required=True, help="input CSV (timestamp,load[,temperature])")
    run_p.add_argument("--config", required=True, help="flat key = value config file")
    run_p.add_argument("--frozen-after", help="stop learning at this ISO timestamp (ablation)")
    run_p.add_argument("--snapshot-out", help="write a learner snapshot at the end of the run")
    run_p.add_argument("--resume", help="resume from a learner snapshot")
    run_p.add_argument("--output-dir", help="directory for forecasts.csv, report.txt, calibration.csv")
    run_p.set_defaults(func=_cmd_run)

    check_p = sub.add_parser("self-check", help="run the oracle agreement suite")
    check_p.add_argument("--seed", type=int, default=0)
    check_p.set_defaults(func=_cmd_self_check)

    metrics_p = sub.add_parser("metrics", help="evaluate a forecasts CSV against actuals")
    metrics_p.add_argument("--forecasts", required=True)
    metrics_p.add_argument("--actuals", required=True)
    metrics_p.set_defaults(func=_cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
