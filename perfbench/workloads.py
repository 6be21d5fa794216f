"""Workload runners, correctness checks and metric assembly.

A run has two phases, each in a process of its own. The set-up phase
(`prepare`, started as `prepare.py`) writes the inputs, sets the
workload up several times (fresh import of the package, then the inputs
made ready) and, on the daily loop, runs the untimed reference replay.
The measuring process then imports the package once and repeats the
workload's operation until the measuring time is spent, checking every
output as it goes. Set-ups and untraced operations are paced (see
`pace.py`): their gated times are seconds at the machine's full speed. Its peak resident set therefore holds the package and
the measured operations, not input generation or set-up. Replays drive
`aplf.harness` directly; the daily loop drives `aplf.cli.main`
in-process. Every call into the package goes through a module attribute
looked up at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter

import inputs
from pace import Measure, Timing
from spans import LAYERS, Tracer

HORIZON = 24
REPLAY_SETUPS = 15
DAILY_SETUPS = 7
PREPARED = "prepared.pickle"  # what the set-up phase hands to the measuring process
# A root span opens just before the benchmark's own start clock read and
# closes just after its end read, so it may exceed the measured time by a
# few clock reads (given this much room, plus 1%) but never fall short.
ROOT_SLACK_S = 1e-3


@dataclass
class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem is not None and len(self.problems) < 10:
            self.problems.append(problem)


@dataclass
class Result:
    outcome: Outcome
    metrics: dict  # name -> (value, unit)
    correct: bool
    notes: dict = field(default_factory=dict)  # name -> (value, unit), printed but not gated


def import_aplf(module: str):
    """Import `module` from scratch: every aplf module is dropped first."""
    for name in [n for n in sys.modules if n == "aplf" or n.startswith("aplf.")]:
        del sys.modules[name]
    return importlib.import_module(module)


def peak_rss_mb() -> float:
    """Peak resident set of this process, the measuring one."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def figures(report) -> dict:
    """The quality figures of an EvalReport, as plain floats."""
    return {"rmse": report.rmse, "mean_pinball": report.mean_pinball, "ece": report.ece}


def end_to_end(setups: list[Timing], rows: int, cycles: list[Timing], report: dict) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the figures printed beside them but not gated.

    A cycle is one operation: a whole replay, or one daily `aplf run`;
    `rows` is the number of input rows one cycle reads. Gated times are
    paced; their wall-clock medians and the kernel's pace are printed
    beside them. `rows_per_s` is the same measurement as `cycle_ms_p50`,
    so only the latter is gated.
    """
    median = statistics.median(c.paced for c in cycles)
    metrics = {
        "setup_s": (statistics.median(t.paced for t in setups), "s"),
        "cycle_ms_p50": (median * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ece": (report["ece"], "1"),
    }
    notes = {
        "setup_s_wall": (statistics.median(t.wall for t in setups), "s"),
        "cycle_ms_p50_wall": (statistics.median(c.wall for c in cycles) * 1e3, "ms"),
        "kernel_ms_p50": (statistics.median(c.kernel for c in cycles) * 1e3, "ms"),
        "rows_per_s": (rows / median, "rows/s"),
        "cycle_ms_p95": (p95([c.paced for c in cycles]) * 1e3, "ms"),
        "cycles": (len(cycles), "count"),
        "rmse": (report["rmse"], "GW"),
        "mean_pinball": (report["mean_pinball"], "GW"),
    }
    return metrics, notes


def _finite_row(fields: list[str]) -> bool:
    mean, std = float(fields[2]), float(fields[3])
    return math.isfinite(mean) and math.isfinite(std) and std >= 0.0


# -- replays -------------------------------------------------------------


class Replay:
    """One batch ingest + rolling evaluation, repeated; operations are test anchors."""

    def __init__(self, inp: inputs.ReplayInput, work: Path):
        self.inp = inp
        self.out_dir = work / "out"
        self.snapshot = work / "snapshot.json"
        self.reference_csv: str | None = None  # forecasts.csv of the first checked run

    def attach(self) -> None:
        """Import the package afresh and read the config."""
        self.harness = import_aplf("aplf.harness")
        self.config = self.harness.load_config(self.inp.config)

    def setup(self) -> Timing:
        with Measure() as m:
            self.attach()
            self.harness.ingest_csv(self.inp.csv, self.config)
        return m.timing

    def run(self, root=contextlib.nullcontext(), pace: bool = False):
        """Ingest and run once inside `root`; returns (Timing from ingest start to outputs written, result).

        A paced run takes a kernel sample every few dozen anchors (at `predict`).
        """
        with root, Measure(pace) as m:
            m.hook(self.harness, "predict")
            records, gaps = self.harness.ingest_csv(self.inp.csv, self.config)
            result = self.harness.run_online_evaluation(records, self.config, snapshot_out=self.snapshot,
                                                        output_dir=self.out_dir, gaps=gaps)
        return m.timing, result

    def check(self, result, outcome: Outcome) -> None:
        """Check one run's written outputs; every test anchor is one operation."""
        anchors = self.inp.test_anchors
        expected = [a for a in anchors if a not in self.inp.skipped]
        text = (self.out_dir / "forecasts.csv").read_text()
        try:
            bad = set(bad_anchors(text, expected, result.forecast_header, result.forecast_rows))
            problem = f"{len(bad)} anchors with missing, extra or malformed forecast rows" if bad else None
        except (ValueError, IndexError) as exc:
            bad, problem = set(anchors), f"unparseable forecasts.csv: {exc}"

        notes = result.notes
        if (notes["n_forecast_rows"] != HORIZON * len(expected) or notes["skipped_days"] != len(self.inp.skipped)
                or not self.snapshot.is_file()):
            bad.update(anchors)
            problem = f"run notes disagree with the input: {notes}"
        elif self.reference_csv is None:
            mismatch = metrics_path_mismatch(self.out_dir / "forecasts.csv", self.inp.csv, result.report)
            if mismatch:
                bad.update(anchors)
                problem = mismatch
            else:
                self.reference_csv = text
        elif text != self.reference_csv:
            bad.update(anchors)
            problem = "forecasts differ from the first run of the same input"
        outcome.add(len(anchors), min(len(bad), len(anchors)), problem)


def bad_anchors(text: str, expected: list[datetime], header: str, rows: list[str]) -> list[datetime]:
    """Anchors whose written forecast rows are missing, malformed or unexpected.

    The written file must be the returned header and rows; each expected
    anchor must own exactly HORIZON consecutive rows with finite mean and
    std >= 0, and no other anchor may appear.
    """
    lines = text.split("\n")
    bad: set[datetime] = set()
    if lines[0] != header or lines[-1] != "":
        return list(expected)
    written = lines[1:-1]
    horizons: dict[datetime, list[int]] = {}
    for i, line in enumerate(written):
        fields = line.split(",")
        horizon = int(fields[1])
        anchor = datetime.fromisoformat(fields[0]) - horizon * timedelta(hours=1)
        horizons.setdefault(anchor, []).append(horizon)
        if i >= len(rows) or line != rows[i] or not _finite_row(fields):
            bad.add(anchor)
    if len(written) != len(rows):
        bad.update(expected)
    for anchor in expected:
        if horizons.pop(anchor, []) != list(range(1, HORIZON + 1)):
            bad.add(anchor)
    bad.update(horizons)  # anchors that should have been skipped or lie outside the test span
    return sorted(bad)


def metrics_path_mismatch(forecasts: Path, actuals: Path, report) -> str | None:
    """Re-evaluate a written forecasts.csv through `aplf metrics`; None when it reproduces the report."""
    cli = importlib.import_module("aplf.cli")
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(["metrics", "--forecasts", str(forecasts), "--actuals", str(actuals)])
    if rc != 0 or report is None:
        return f"aplf metrics exited {rc}: {sink.getvalue().strip()}"
    printed = dict(line.split(" = ", 1) for line in sink.getvalue().splitlines() if " = " in line)
    for key in ("rmse", "mean_pinball", "ece"):
        if float(printed.get(key, "nan")) != getattr(report, key):
            return f"aplf metrics gives {key} = {printed.get(key)}, the run reported {getattr(report, key)!r}"
    return None


def run_replay(prepared: dict, work: Path, seconds: float, trace: bool, spans_out: Path | None = None) -> Result:
    """Repeat the replay; every other run is traced when `trace` is set."""
    inp = prepared["input"]
    replay = Replay(inp, work)
    replay.attach()
    outcome = Outcome()
    tracer = Tracer(anchor_ops=True) if trace else None
    times: list[Timing] = []
    traced: dict[int, float] = {}  # run number -> seconds, for the traced runs
    report = None
    deadline = perf_counter() + seconds
    i = 0
    while i < (2 if trace else 1) or perf_counter() < deadline:
        traced_run = trace and i % 2 == 1
        result = None  # free the previous run's result outside the timed region
        try:
            if traced_run:
                tracer.install()
                try:
                    timing, result = replay.run(tracer.root(i))
                finally:
                    tracer.uninstall()
            else:
                timing, result = replay.run(pace=not trace)
        except Exception as exc:  # a run that raises fails all its anchors; keep measuring
            outcome.add(len(inp.test_anchors), len(inp.test_anchors), f"run raised {exc!r}")
        else:
            if traced_run:
                traced[i] = timing.wall
            else:
                times.append(timing)
            report = result.report
            replay.check(result, outcome)
        i += 1
    if not times or report is None:
        return Result(outcome, {}, False)

    return finish(outcome, prepared["setups"], figures(report), inp.n_rows, times, traced, tracer, spans_out,
                  replay.snapshot, replay.out_dir / "forecasts.csv")


# -- daily resume loop ---------------------------------------------------


class Daily:
    """Closed loop of one operator: one resumed `aplf run` per day; operations are cycles."""

    def __init__(self, inp: inputs.DailyInput, work: Path):
        self.inp = inp
        self.warm_snapshot = work / "warm-snapshot.json"
        self.out_dir = work / "cycle-out"
        self.slots = (work / "snapshot-a.json", work / "snapshot-b.json")
        self.warm_bytes: bytes | None = None
        self.expected: list[str] = []  # forecasts.csv of each cycle day, from the reference replay

    def attach(self, expected: list[str]) -> None:
        """Import the package afresh and take the warm-up snapshot and expected forecasts that set-up left."""
        self.cli = import_aplf("aplf.cli")
        self.warm_bytes = self.warm_snapshot.read_bytes()
        self.expected = expected

    def setup(self) -> Timing:
        """Import, then warm the learner on the history and write its snapshot."""
        with Measure() as m:
            self.cli = import_aplf("aplf.cli")
            harness = self.cli.harness
            m.hook(harness, "predict")
            config = harness.load_config(self.inp.warm_config)
            records, gaps = harness.ingest_csv(self.inp.warm_csv, config)
            harness.run_online_evaluation(records, config, snapshot_out=self.warm_snapshot, gaps=gaps)
        warm = self.warm_snapshot.read_bytes()
        if self.warm_bytes is not None and warm != self.warm_bytes:
            raise RuntimeError("warm-up snapshots differ between set-ups of the same input")
        self.warm_bytes = warm
        return m.timing

    def reference(self) -> dict:
        """Untimed single replay over the warm-up and every cycle day; returns its quality figures."""
        harness = self.cli.harness
        config = harness.load_config(self.inp.full_config)
        records, gaps = harness.ingest_csv(self.inp.full_csv, config)
        result = harness.run_online_evaluation(records, config, gaps=gaps)
        days = len(self.inp.windows)
        rows = result.forecast_rows
        if len(rows) != HORIZON * days or not all(_finite_row(r.split(",")) for r in rows):
            raise RuntimeError("reference replay produced missing or non-finite forecasts")
        self.expected = [
            result.forecast_header + "\n" + "".join(r + "\n" for r in rows[k * HORIZON:(k + 1) * HORIZON])
            for k in range(days)
        ]
        return figures(result.report)

    def cycle(self, k: int, outcome: Outcome, tracer: Tracer | None = None, pace: bool = False) -> Timing | None:
        """Run cycle k (day k modulo the window count) and check it; returns its Timing or None."""
        day = k % len(self.inp.windows)
        resume, out = self.slots[k % 2], self.slots[(k + 1) % 2]
        if day == 0:
            resume.write_bytes(self.warm_bytes)  # each pass over the days restarts from the warm-up
        out.unlink(missing_ok=True)
        data, config = self.inp.windows[day]
        argv = ["run", "--data", str(data), "--config", str(config), "--resume", str(resume),
                "--snapshot-out", str(out), "--output-dir", str(self.out_dir)]
        sink = io.StringIO()
        try:
            root = contextlib.nullcontext() if tracer is None else tracer.root(k)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), root, Measure(pace) as m:
                rc = self.cli.main(argv)
        except Exception as exc:
            outcome.add(1, 1, f"cycle {k} raised {exc!r}")
            return None
        if rc != 0:
            outcome.add(1, 1, f"cycle {k} exited {rc}: {sink.getvalue().strip()[-200:]}")
            return None
        if not out.is_file():
            outcome.add(1, 1, f"cycle {k} wrote no snapshot")
            return None
        if (self.out_dir / "forecasts.csv").read_text() != self.expected[day]:
            outcome.add(1, 1, f"cycle {k} forecasts differ from the single replay over day {day}")
            return None
        outcome.add(1)
        return m.timing


def run_daily(prepared: dict, work: Path, seconds: float, trace: bool, spans_out: Path | None = None) -> Result:
    """Run cycles until the time is spent; every other cycle is traced when `trace` is set."""
    inp = prepared["input"]
    daily = Daily(inp, work)
    daily.attach(prepared["expected"])
    outcome = Outcome()
    tracer = Tracer(anchor_ops=False) if trace else None
    times: list[Timing] = []
    traced: dict[int, float] = {}  # cycle number -> seconds, for the traced cycles
    deadline = perf_counter() + seconds
    k = 0
    while k < 2 or perf_counter() < deadline:
        traced_cycle = trace and k % 2 == 1
        if traced_cycle:
            tracer.install()
            try:
                timing = daily.cycle(k, outcome, tracer)
            finally:
                tracer.uninstall()
        else:
            timing = daily.cycle(k, outcome, pace=not trace)
        if timing is not None:
            if traced_cycle:
                traced[k] = timing.wall
            else:
                times.append(timing)
        k += 1
    if not times:
        return Result(outcome, {}, False)

    return finish(outcome, prepared["setups"], prepared["report"], inp.window_rows, times, traced, tracer, spans_out,
                  daily.slots[k % 2], daily.out_dir / "forecasts.csv")


def finish(outcome: Outcome, setups: list[Timing], report: dict, rows: int, times: list[Timing],
           traced: dict[int, float], tracer: Tracer | None, spans_out: Path | None, snapshot: Path,
           forecasts: Path) -> Result:
    """Assemble the end-to-end metrics, or with a tracer the per-layer ones.

    times are the untraced cycles (paced unless traced) and traced maps
    each traced operation to its wall seconds; snapshot and forecasts are the files the last
    cycle wrote. A traced run is correct only if its spans nest strictly
    and each root span holds the time measured for its operation.
    """
    if tracer is None:
        metrics, notes = end_to_end(setups, rows, times, report)
        return Result(outcome, metrics, outcome.failed == 0, notes)
    if spans_out is not None:
        tracer.dump(spans_out)
    s = tracer.summary()
    problems = s.problems + root_problems(s, traced)
    outcome.problems.extend(problems)
    sizes = {"snapshot.bytes": _size(snapshot), "forecasts_csv.bytes": _size(forecasts)}
    metrics = layer_metrics(s, sizes, rows / statistics.median(t.wall for t in times),
                            rows / statistics.median(traced.values()) if traced else 0.0)
    return Result(outcome, metrics, outcome.failed == 0 and not problems)


def root_problems(s, traced: dict[int, float]) -> list[str]:
    """Traced operations whose root span does not hold the time the benchmark measured for them."""
    wrong = []
    for op, seconds in traced.items():
        root = s.root_seconds.get(op)
        if root is None or not 0.0 <= root - seconds <= ROOT_SLACK_S + 0.01 * seconds:
            wrong.append(f"operation {op} took {seconds!r} s, its root span {root!r} s")
    if not wrong:
        return []
    return [f"{len(wrong)} of {len(traced)} traced operations disagree with their root span; {wrong[0]}"]


def _size(path: Path) -> int:
    """Bytes in a file the last operation wrote; 0 when that operation failed to write it."""
    return path.stat().st_size if path.is_file() else 0


# -- per-layer metrics from the traced operations ------------------------


def layer_metrics(s, sizes: dict, untraced_rows_per_s: float, traced_rows_per_s: float) -> dict:
    """Per-layer metrics of the traced operations.

    Counts are per traced operation (one replay, or one daily cycle);
    times per call are inclusive means, 0 when the workload makes no call.
    """
    ops = s.roots
    updates = s.calls("channel_update.k2") + s.calls("channel_update.k3")
    encodes = s.calls("encode")
    anchors = s.calls("learn_step")
    us, ms = 1e6, 1e3
    metrics = {
        "learn_step.us_per_call": (s.per_call("learn_step", us), "us"),
        "channel_update.k2.us_per_call": (s.per_call("channel_update.k2", us), "us"),
        "channel_update.k3.us_per_call": (s.per_call("channel_update.k3", us), "us"),
        "channel_update.calls": (updates / ops, "count"),
        "trace_reset.us_per_call": (s.per_call("trace_reset", us), "us"),
        "trace_reset.fire_ratio": (s.counts.get("trace_reset.fires", 0) / updates if updates else 0.0, "1"),
        "batch_initialize.calls": (s.calls("batch_initialize") / ops, "count"),
        "batch_initialize.us_per_call": (s.per_call("batch_initialize", us), "us"),
        "OnlineLearner.init_us": (s.per_call("OnlineLearner.init", us), "us"),
        "predict.us_per_call": (s.per_call("predict", us), "us"),
        "forecast_step.us_per_call": (s.per_call("forecast_step", us), "us"),
        "cold_start_substitutions": (s.counts.get("cold_start_substitutions", 0) / ops, "count"),
        "calendar_type.calls": (s.calls("calendar_type") / ops, "count"),
        "calendar_type.us_per_call": (s.per_call("calendar_type", us), "us"),
        "encode.us_per_call": (s.per_call("encode", us), "us"),
        "encode.flag_ratio": (s.counts.get("encode.flagged", 0) / encodes if encodes else 0.0, "1"),
        "ingest_csv.us_per_row": (s.total("ingest_csv") / s.counts.get("ingest_csv.rows", 1) * us, "us"),
        "loop.self_s": (s.self_time("loop") / ops, "s"),
        "loop.us_per_anchor": (s.self_time("loop") / anchors * us if anchors else 0.0, "us"),
        "snapshot_save.ms_per_call": (s.per_call("snapshot_save", ms), "ms"),
        "snapshot_load.ms_per_call": (s.per_call("snapshot_load", ms), "ms"),
        "snapshot.bytes": (sizes["snapshot.bytes"], "bytes"),
        "load_config.us_per_call": (s.per_call("load_config", us), "us"),
        "forecasts_csv.bytes": (sizes["forecasts_csv.bytes"], "bytes"),
        "main.self_ms": (s.self_time("main") / s.calls("main") * ms if s.calls("main") else 0.0, "ms"),
        "evaluate_forecasts.us_per_point": (
            s.total("evaluate_forecasts") / s.counts["evaluate_forecasts.points"] * us
            if s.counts.get("evaluate_forecasts.points") else 0.0, "us"),
        "to_dict.us_per_call": (s.per_call("to_dict", us), "us"),
        "from_dict.us_per_call": (s.per_call("from_dict", us), "us"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (s.layer_self[layer] / ops * ms, "ms")
    metrics["trace.wall_ms"] = (s.wall / ops * ms, "ms")
    metrics["trace.rows_per_s_untraced"] = (untraced_rows_per_s, "rows/s")
    metrics["trace.rows_per_s_traced"] = (traced_rows_per_s, "rows/s")
    metrics["trace.overhead"] = (untraced_rows_per_s / traced_rows_per_s - 1.0 if traced_rows_per_s else 0.0, "1")
    return metrics


WORKLOADS = {
    "replay_3y": (inputs.replay_3y, run_replay),
    "replay_stress": (inputs.replay_stress, run_replay),
    "daily_resume": (inputs.daily_resume, run_daily),
}


def prepare(workload: str, seed: int, work: Path, **scale) -> dict:
    """The set-up phase: write the inputs, time the set-ups and, on the daily loop, run the reference.

    Returns what the measuring process needs; every value pickles.
    """
    build, _ = WORKLOADS[workload]
    inp = build(seed, work, **scale)
    if isinstance(inp, inputs.DailyInput):
        daily = Daily(inp, work)
        setups = [daily.setup() for _ in range(DAILY_SETUPS)]
        return {"input": inp, "setups": setups, "report": daily.reference(), "expected": daily.expected}
    replay = Replay(inp, work)
    return {"input": inp, "setups": [replay.setup() for _ in range(REPLAY_SETUPS)]}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        spans_out: Path | None = None, **scale) -> Result:
    """Set the workload up from the seed in a child process, then measure it in this one.

    `scale` passes size arguments (days, cycle_days, ...) to the function that writes the inputs.
    """
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    subprocess.run([sys.executable, str(Path(__file__).with_name("prepare.py")), workload, str(seed), str(work),
                    json.dumps(scale)], check=True)
    prepared = pickle.loads((work / PREPARED).read_bytes())
    return WORKLOADS[workload][1](prepared, work, seconds, trace, spans_out)
