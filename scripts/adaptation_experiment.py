#!/usr/bin/env python3
"""Online adaptation vs. a frozen model across a consumption-pattern switch.

Generates a synthetic series whose daily profile flattens mid-test, runs
the rolling loop twice (online learning vs. learning frozen at the end of
the training span), and prints pooled and post-switch RMSE for both.

Example:
    python scripts/adaptation_experiment.py --days 100 --switch-day 50 --train-days 30
"""

import argparse
import tempfile
from datetime import timedelta
from pathlib import Path

from aplf.harness import RunConfig, ingest_csv, run_online_evaluation
from aplf.metrics import rmse
from aplf.model_types import HyperParams
from aplf.synthetic import make_hourly_series, write_series_csv


def tail_rmse(result, base, step, cutoff):
    tail = [i for i, t in enumerate(result.t) if base + t * step >= cutoff]
    return rmse([result.actual[i] for i in tail], [result.mean[i] for i in tail])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=int, default=100)
    parser.add_argument("--switch-day", type=int, default=50)
    parser.add_argument("--train-days", type=int, default=30)
    parser.add_argument("--noise", type=float, default=0.01)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output-dir", type=Path, default=None)
    args = parser.parse_args()

    rows = make_hourly_series(args.days, switch_day=args.switch_day, noise=args.noise, seed=args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "series.csv"
        write_series_csv(csv_path, rows)
        config = RunConfig(hp=HyperParams(), load_unit="GW",
                           train_end=rows[0][0] + timedelta(days=args.train_days))
        series, _ = ingest_csv(csv_path, config)
        online = run_online_evaluation(series, config, output_dir=args.output_dir)
        frozen = run_online_evaluation(series, config, frozen_after=config.train_end)

    base, step = series.start, series.step
    switch_ts = base + timedelta(days=args.switch_day)
    print(f"series: {args.days} days, pattern switch at day {args.switch_day} ({switch_ts.date()})")
    print(f"online  rmse = {online.report.rmse:.4f} GW  (post-switch {tail_rmse(online, base, step, switch_ts):.4f})")
    print(f"frozen  rmse = {frozen.report.rmse:.4f} GW  (post-switch {tail_rmse(frozen, base, step, switch_ts):.4f})")
    print(f"online  ece  = {online.report.ece:.3f}, mean pinball = {online.report.mean_pinball:.4f} GW")
    if args.output_dir is not None:
        print(f"online-run outputs written to {args.output_dir}")


if __name__ == "__main__":
    main()
