#!/usr/bin/env python3
"""Benchmark of the aplf package on seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay_3y --seed 1 --seconds 10 --trace 0

Inputs are built from --seed alone, the workload is set up several times
(the median is setup_s) and then measured for --seconds, with every output
checked. With --trace 0 the end-to-end metrics are reported; with --trace 1
every other operation runs under the outside-in span tracer and the
per-layer metrics are reported instead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
workloads and metrics are listed in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("replay_3y", "replay_stress", "daily_resume")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, help="with --trace 1, also write every span to this .npz file")
    args = parser.parse_args(argv)

    if not (SRC / "aplf" / "__init__.py").is_file():
        print(f"error: no aplf package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import aplf  # noqa: E402

    if not Path(aplf.__file__).resolve().is_relative_to(SRC):
        print(f"error: aplf imported from {aplf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads  # noqa: E402

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work,
                               spans_out=args.spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome = result.outcome
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in {**result.metrics, **result.notes}.items():
        print(f"{name} = {value!r} {unit}")
    print(f"error_rate = {outcome.failed / outcome.attempted if outcome.attempted else 1.0!r} 1"
          f"  ({outcome.failed} of {outcome.attempted} operations failed)")
    for problem in outcome.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
