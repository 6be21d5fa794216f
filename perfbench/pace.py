"""The machine's pace: a fixed reference kernel timed beside the workload.

The benchmark shares a few cores of a host whose speed swings by up to
2x within seconds, and the slowdown hits every interpreter-bound program
alike. `Measure` times a fixed kernel of the same kind of work as the
package (small numpy algebra, float arithmetic, datetime and CSV-style
string handling, JSON) right before and right after each measured
operation and, inside a long operation, every few dozen anchors. Each
stretch of the operation between two kernel samples is divided by the
mean of those samples and multiplied by `REFERENCE_S`, the kernel's time
at full speed; the sum is the operation's time in seconds at full speed
(its paced time). The kernel is the benchmark's own code, so a change to
the package moves the paced time as it moves the wall time, while the
host's swings cancel out. Kernel time is left out of both.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from dataclasses import dataclass
from datetime import datetime, timedelta
from time import perf_counter

import numpy as np

# Seconds one kernel() call takes when the machine runs at full speed: the
# fast phase of a 2-vCPU 2.1 GHz Xeon VM. Only the scale of paced times.
REFERENCE_S = 1.0e-3
CALLS = 3  # kernel calls per sample; a sample is their median
EVERY = 32  # inside an operation, one sample every this many hooked calls


def kernel() -> float:
    """A fixed amount of package-like work; returns a checksum so that none of it is skipped."""
    p = np.eye(3)
    eta = np.zeros(3)
    acc = 0.0
    t = datetime(2020, 1, 1)
    lines = []
    for i in range(60):
        u = np.array([1.0, math.sin(i), math.cos(i)])
        pu = p @ u
        denom = 0.99 + float(u @ pu)
        p = (p - np.outer(pu, pu) / denom) / 0.99
        eta = eta + pu * ((i % 7) - float(u @ eta)) / denom
        acc += math.sqrt(abs(float(np.trace(p)))) + math.exp(-i / 60.0)
        stamp = (t + timedelta(hours=i)).isoformat()
        lines.append(f"{stamp},{i % 24 + 1},{acc:.6f},{float(eta[0]):.6f}")
        acc += datetime.fromisoformat(stamp).hour
    acc += sum(float(line.split(",")[2]) for line in "\n".join(lines).split("\n"))
    blob = json.dumps({"P": p.tolist(), "eta": eta.tolist(), "lines": lines[:8]})
    return acc + len(json.loads(blob)["lines"])


def sample() -> float:
    """Seconds per kernel call now: the median of CALLS calls."""
    times = []
    for _ in range(CALLS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Timing:
    """One measured operation: wall seconds and paced seconds, kernel samples left out."""

    wall: float = 0.0
    paced: float = 0.0
    kernel: float = 0.0  # the operation's mean kernel sample, weighted by wall time


class Measure:
    """Times the enclosed operation; `timing` is filled in at exit.

    With `pace`, the operation is paced: a kernel sample opens it, one
    closes it, and each hooked call (see `hook`) closes a stretch with a
    sample of its own every EVERY calls. Without, only its wall time is
    taken and `hook` does nothing.
    """

    def __init__(self, pace: bool = True):
        self.pace = pace
        self.timing = Timing()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Measure":
        self._last = sample() if self.pace else 0.0
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if not self.pace:
            self.timing.wall = perf_counter() - self._start
            return
        self._close()
        t = self.timing
        t.kernel = t.kernel / t.wall if t.wall else 0.0

    def _close(self) -> None:
        """End the open stretch: take a kernel sample and pace the stretch by it and the one before."""
        seconds = perf_counter() - self._start
        now = sample()
        kernel = (self._last + now) / 2.0
        t = self.timing
        t.wall += seconds
        t.paced += seconds * REFERENCE_S / kernel
        t.kernel += seconds * kernel
        self._last = now
        self._start = perf_counter()

    def hook(self, owner, attr: str) -> None:
        """Close a stretch before every EVERY-th call of `owner.attr` until exit, when the original returns."""
        if not self.pace:
            return
        original = getattr(owner, attr)
        calls = 0

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            nonlocal calls
            calls += 1
            if calls % EVERY == 0:
                self._close()
            return original(*args, **kwargs)

        self._restore.append((owner, attr, original))
        setattr(owner, attr, hooked)
