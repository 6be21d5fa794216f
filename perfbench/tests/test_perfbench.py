"""Tests of the benchmark itself: metric coverage, tracer hygiene, correctness checks.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import shutil
import subprocess
import sys
import types
from array import array
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = {
    "replay_3y": {"days": 60},
    "replay_stress": {"days": 90, "events": 3},
    "daily_resume": {"warm_days": 40, "cycle_days": 4},
}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_and_outputs_are_correct(tmp_path, workload, trace):
    result = workloads.run(workload, 3, 0.0, trace, tmp_path / "work", **SMALL[workload])
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result.outcome.problems == []
    assert result.correct and result.outcome.failed == 0 and result.outcome.attempted > 0
    assert list(result.metrics) == [m["name"] for m in wanted]
    for metric in wanted:
        value, unit = result.metrics[metric["name"]]
        assert unit == metric["unit"]
        assert math.isfinite(value)
        if not trace:
            assert value > 0, metric["name"]


def test_inputs_depend_only_on_the_seed(tmp_path):
    paths = []
    for run, seed in (("a", 5), ("b", 5), ("c", 6)):
        work = tmp_path / run
        work.mkdir()
        paths.append(inputs.replay_stress(seed, work, days=40, events=2).csv.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0] != paths[2]


def _targets():
    found = []
    for module_name, class_name, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        found.append((owner, attr, owner.__dict__[attr]))
    return found


def test_wrappers_restore_the_original_functions():
    before = _targets()
    tracer = spans.Tracer(anchor_ops=True)
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in before)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for (owner, attr, raw), (_, _, now) in zip(before, _targets()):
        assert now is raw, f"{owner.__name__}.{attr} was not restored"


def test_a_paced_operation_samples_the_kernel_at_its_hook_and_restores_it(monkeypatch):
    taken = []
    monkeypatch.setattr(pace, "sample", lambda: taken.append(1) or 4 * pace.REFERENCE_S)
    owner = types.SimpleNamespace(step=lambda x: x + 1)
    original = owner.step
    with pace.Measure() as m:
        m.hook(owner, "step")
        assert owner.step is not original
        assert [owner.step(i) for i in range(2 * pace.EVERY + 1)] == list(range(1, 2 * pace.EVERY + 2))
    assert owner.step is original
    assert len(taken) == 2 + 2  # one opening and one closing sample, one per EVERY hooked calls
    t = m.timing
    assert t.wall > 0 and t.paced == pytest.approx(t.wall / 4) and t.kernel == pytest.approx(4 * pace.REFERENCE_S)


def test_an_unpaced_operation_takes_wall_time_only(monkeypatch):
    monkeypatch.setattr(pace, "sample", lambda: pytest.fail("an unpaced operation sampled the kernel"))
    owner = types.SimpleNamespace(step=lambda x: x)
    original = owner.step
    with pace.Measure(pace=False) as m:
        m.hook(owner, "step")
        assert owner.step is original
        [owner.step(i) for i in range(2 * pace.EVERY)]
    assert m.timing.wall > 0 and m.timing.paced == 0.0


def test_spans_nest_and_raising_spans_are_marked():
    tracer = spans.Tracer(anchor_ops=False)

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped_inner = tracer._wrap(inner, "inner", "features", {})
    wrapped_outer = tracer._wrap(lambda x: wrapped_inner(x) + wrapped_inner(x), "outer", "harness", {})
    for op in range(3):
        with tracer.root(op):
            wrapped_outer(op)
    with pytest.raises(ValueError), tracer.root(9):
        wrapped_outer(-1)

    s = tracer.summary()
    assert s.problems == []
    assert s.roots == 4 and s.calls("outer") == 4 and s.calls("inner") == 7
    assert s.raised == 3  # inner, outer and the root of the failing operation
    assert sorted(s.root_seconds) == [0, 1, 2, 9]
    every = tracer.spans()
    names = [tracer.names[i] for i in every["name"]]
    assert names[:4] == ["bench", "outer", "inner", "inner"]
    assert list(every["parent"][:4]) == [-1, 0, 1, 1]
    assert list(every["op"]) == [0] * 4 + [1] * 4 + [2] * 4 + [9] * 3
    assert list(every["raised"]) == [False] * 12 + [True] * 3
    assert (every["end"] >= every["start"]).all()


def _logged(root, first, second) -> spans.TraceSummary:
    """The summary of a hand-written event log: operation 0 with two child spans, (start, end) each."""
    tracer = spans.Tracer(anchor_ops=False)
    child = tracer._name_id("child", "features")
    tracer._events = array("d", [spans.OP, 0, 0, root[0],
                                 child, first[0], spans.CLOSE, first[1],
                                 child, second[0], spans.CLOSE, second[1],
                                 spans.CLOSE, root[1]])
    return tracer.summary()


@pytest.mark.parametrize("root, first, second, problem", [
    ((0, 10), (1, 2), (3, 4), None),
    ((0, 10), (1, 2), (2, 4), None),  # siblings may touch
    ((0, 10), (5, 2), (6, 7), "end before"),  # first child ends before it starts
    ((0, 10), (1, 2), (3, 12), "outside"),  # second child outlives the root
    ((5, 10), (1, 6), (6, 7), "outside"),  # first child starts before the root
    ((0, 10), (1, 4), (3, 5), "overlap"),  # children overlap: time counted twice
])
def test_badly_nested_spans_are_reported(root, first, second, problem):
    s = _logged(root, first, second)
    assert s.roots == 1 and s.calls("child") == 2
    if problem is None:
        assert s.problems == []
    else:
        assert len(s.problems) == 1 and problem in s.problems[0]


def test_a_root_span_must_hold_the_measured_time():
    s = _logged((0, 10), (1, 2), (3, 4))
    assert workloads.root_problems(s, {0: 10.0}) == []
    assert workloads.root_problems(s, {0: 9.95}) == []  # within a few clock reads and 1%
    assert workloads.root_problems(s, {0: 10.5})  # longer than its root span
    assert workloads.root_problems(s, {0: 5.0})  # the root span holds other time
    assert workloads.root_problems(s, {1: 10.0})  # no root span for this operation


def test_a_traced_run_writes_its_spans(tmp_path):
    path = tmp_path / "spans.npz"
    result = workloads.run("daily_resume", 3, 0.0, True, tmp_path / "work", spans_out=path, **SMALL["daily_resume"])
    assert result.correct
    with np.load(path) as spans_file:
        names = list(spans_file["names"])
        roots = spans_file["parent"] < 0
        assert names[0] == "bench" and "channel_update.k3" in names
        assert roots.sum() == 1  # cycles alternate, and two ran: one traced
        assert (spans_file["op"] == spans_file["op"][roots][0]).all()  # every span carries its cycle number
        assert not spans_file["raised"].any()


@pytest.fixture
def small_replay(tmp_path):
    inp = inputs.replay_3y(4, tmp_path, days=45)
    replay = workloads.Replay(inp, tmp_path)
    replay.setup()
    _, result = replay.run()
    outcome = workloads.Outcome()
    replay.check(result, outcome)
    assert outcome.failed == 0 and outcome.attempted == len(inp.test_anchors)
    return replay, result


@pytest.mark.parametrize("edit", ["mean", "nan", "drop", "garbage"])
def test_a_perturbed_forecast_row_fails_the_check(small_replay, edit):
    replay, result = small_replay
    path = replay.out_dir / "forecasts.csv"
    lines = path.read_text().split("\n")
    fields = lines[30].split(",")
    if edit == "mean":
        fields[2] = repr(float(fields[2]) + 1e-9)
        lines[30] = ",".join(fields)
    elif edit == "nan":
        fields[3] = "nan"
        lines[30] = ",".join(fields)
    elif edit == "drop":
        del lines[30]
    else:
        lines[30] = "not,a,row"
    path.write_text("\n".join(lines))

    outcome = workloads.Outcome()
    replay.check(result, outcome)
    assert outcome.failed >= 1 and outcome.problems


def test_a_report_that_the_metrics_path_cannot_reproduce_fails_every_anchor(small_replay):
    replay, result = small_replay
    replay.reference_csv = None
    report = result.report
    result.report = type(report)(**{**report.__dict__, "ece": report.ece + 1e-12})
    outcome = workloads.Outcome()
    replay.check(result, outcome)
    assert outcome.failed == outcome.attempted


@pytest.fixture
def small_daily(tmp_path):
    daily = workloads.Daily(inputs.daily_resume(4, tmp_path, warm_days=40, cycle_days=3), tmp_path)
    daily.setup()
    daily.reference()
    outcome = workloads.Outcome()
    assert daily.cycle(0, outcome) is not None
    return daily, outcome


def _rewrite_snapshot(path: Path, edit) -> None:
    """Edit a snapshot's payload and recompute its checksum the way the package writes it."""
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    body = json.dumps(doc["payload"], sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def test_a_corrupted_snapshot_fails_the_next_cycle(small_daily):
    daily, outcome = small_daily
    snapshot = daily.slots[1]
    snapshot.write_text(snapshot.read_text().replace('"sigma":', '"sigma":1', 1))
    assert daily.cycle(1, outcome) is None
    assert outcome.failed == 1 and "exited 2" in outcome.problems[0]


def test_a_consistently_perturbed_snapshot_fails_the_byte_identity_check(small_daily):
    daily, outcome = small_daily

    def nudge(payload):
        for channel in payload["model"]["s_channels"]:
            channel["eta"][0] += 1e-6

    _rewrite_snapshot(daily.slots[1], nudge)
    assert daily.cycle(1, outcome) is None
    assert outcome.failed == 1 and "differ" in outcome.problems[0]
    assert outcome.attempted == 2


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", "replay_3y", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
