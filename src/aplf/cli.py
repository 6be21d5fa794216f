"""Command line interface: run, self-check, metrics.

Exit codes: 0 success, 2 input error (an InputError, OSError or ValueError:
unreadable or malformed files, config, snapshots), 3 numerical degeneracy
(a NumericError: corrupted state, degenerate variances; or a failed self-check).
"""

from __future__ import annotations

import argparse
import functools
import sys
from array import array
from bisect import bisect_left
from datetime import datetime, timedelta
from pathlib import Path

from . import harness
from .metrics import evaluate_forecasts
from .model_types import InputError, NumericError


def _cmd_run(args) -> int:
    try:
        frozen_after = datetime.fromisoformat(args.frozen_after) if args.frozen_after else None
    except ValueError as exc:
        raise harness.ParseError(f"--frozen-after {args.frozen_after!r}: {exc}") from exc
    config = harness.load_config(args.config)
    series, _ = harness.ingest_csv(args.data, config)
    output_dir = Path(args.output_dir) if args.output_dir else None
    result = harness.run_online_evaluation(
        series,
        config,
        frozen_after=frozen_after,
        resume=args.resume,
        snapshot_out=args.snapshot_out,
        output_dir=output_dir,
    )
    for line in result.lines():
        print(line)
    if output_dir is not None:
        print(f"outputs written to {output_dir}")
    return 0


def _cmd_self_check(args) -> int:
    # The oracles are loaded only here, so that no other command imports them.
    from .oracles import self_check

    return 0 if self_check(seed=args.seed) else 3


def _cmd_metrics(args) -> int:
    # One minute is the finest step a run accepts, so this grid admits the
    # actuals of any run. A forecast row is scored against the actual row at
    # its own instant, found by its step index in the series' sorted index
    # column; a row off the grid, outside the series or with the other
    # awareness (naive or offset-aware) has none. An anchor's rows come in
    # time order, so a row is first tried against the entry after the last
    # row's, and the column is searched only when that is not its instant.
    # The forecast rows are streamed, and only a matched row's three floats
    # are kept.
    step = timedelta(minutes=1)
    series = harness.read_series(args.actuals, harness.RunConfig(step=step))
    start, index, load, n = series.start, series.index, series.load, len(series)
    actual, means, stds = array("d"), array("d"), array("d")
    k = -1  # each row is first tried against entry k + 1
    for ts, mean, std in harness.read_forecasts(args.forecasts):
        k += 1
        if k == n or ts != start + index[k] * step:
            try:
                i, rem = divmod(ts - start, step)
            except TypeError:
                k -= 1
                continue
            k = bisect_left(index, i)
            if rem or k == n or index[k] != i:
                k -= 1
                continue
        if load[k] is not None:
            actual.append(load[k])
            means.append(mean)
            stds.append(std)
    if not actual:
        raise harness.EmptySpan("no overlapping (forecast, actual) timestamps")
    report = evaluate_forecasts(actual, means, stds)
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
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
