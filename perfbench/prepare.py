#!/usr/bin/env python3
"""The set-up phase of one benchmark run, in a process of its own.

    python3 perfbench/prepare.py WORKLOAD SEED WORK_DIR SCALE_JSON

Writes the workload's inputs into WORK_DIR, times its set-ups and pickles
what the measuring process needs to WORK_DIR/prepared.pickle.
`workloads.run` starts it, so that input generation and set-up stay out of
the measuring process's peak resident set.
"""

from __future__ import annotations

import json
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workload, seed, work, scale = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), json.loads(sys.argv[4])
prepared = workloads.prepare(workload, seed, work, **scale)
(work / workloads.PREPARED).write_bytes(pickle.dumps(prepared))
