"""Outside-in span tracing of the aplf layers.

`Tracer.install` replaces public functions and methods of the aplf
modules with wrappers that record one span per call: its name, start,
end, parent span, operation id and whether it raised. The operation id is
the anchor step index on a replay (taken from the instance passed to
`predict` and `learn_step`) and the cycle number on the daily loop; other
spans inherit their parent's. Spans are kept in flat in-memory arrays and
are summarised, or dumped, when the run ends. `uninstall` puts every
original object back. Nothing inside the package is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ROOT = "bench"  # span name and layer of the benchmark's own per-operation span


def _is_k2(args) -> bool:
    return len(args[2]) == 2


def _anchor_of(args) -> int:
    return args[1].t


def _trace_reset_fired(args, out) -> int:
    return out is not args[0]


def _encode_flagged(args, out) -> int:
    return bool(out[1] or out[2])


def _cold_starts(args, out) -> int:
    return len(out.cold_start_substitutions)


def _ingested_rows(args, out) -> int:
    return len(out[0])


def _evaluated_points(args, out) -> int:
    return len(args[0])


# (module, class or None, attribute, span name, layer, options). Options:
#   split: (predicate on args, name if true, name if false) picks the span name
#   op: reads the anchor step index from the call's arguments
#   count: (counter name, function of (args, result) giving the increment)
TARGETS = (
    ("aplf.harness", None, "ingest_csv", "ingest_csv", "harness",
     {"count": ("ingest_csv.rows", _ingested_rows)}),
    ("aplf.harness", None, "load_config", "load_config", "harness", {}),
    ("aplf.harness", None, "snapshot_save", "snapshot_save", "harness", {}),
    ("aplf.harness", None, "snapshot_load", "snapshot_load", "harness", {}),
    ("aplf.harness", None, "run_online_evaluation", "loop", "harness", {}),
    ("aplf.harness", None, "predict", "predict", "forecaster",
     {"op": _anchor_of, "count": ("cold_start_substitutions", _cold_starts)}),
    ("aplf.harness", None, "evaluate_forecasts", "evaluate_forecasts", "metrics",
     {"count": ("evaluate_forecasts.points", _evaluated_points)}),
    ("aplf.harness", None, "calendar_type", "calendar_type", "features", {}),
    ("aplf.recursive_learner", None, "channel_update", "channel_update", "recursive_learner",
     {"split": (_is_k2, "channel_update.k2", "channel_update.k3")}),
    ("aplf.recursive_learner", None, "trace_reset", "trace_reset", "recursive_learner",
     {"count": ("trace_reset.fires", _trace_reset_fired)}),
    ("aplf.recursive_learner", None, "batch_initialize", "batch_initialize", "recursive_learner", {}),
    ("aplf.recursive_learner", "OnlineLearner", "__init__", "OnlineLearner.init", "recursive_learner", {}),
    ("aplf.recursive_learner", "OnlineLearner", "learn_step", "learn_step", "recursive_learner",
     {"op": _anchor_of}),
    ("aplf.forecaster", None, "forecast_step", "forecast_step", "forecaster", {}),
    ("aplf.features", "TemperatureShiftEncoder", "encode", "encode", "features",
     {"count": ("encode.flagged", _encode_flagged)}),
    ("aplf.cli", None, "main", "main", "cli", {}),
    ("aplf.model_types", "ModelParams", "to_dict", "to_dict", "model_types", {}),
    ("aplf.model_types", "LearnerState", "to_dict", "to_dict", "model_types", {}),
    ("aplf.model_types", "ModelParams", "from_dict", "from_dict", "model_types", {}),
    ("aplf.model_types", "LearnerState", "from_dict", "from_dict", "model_types", {}),
)

LAYERS = ("harness", "cli", "recursive_learner", "forecaster", "features", "metrics", "model_types", ROOT)


# Event codes. The tracer appends (code, value) pairs of floats: a span
# opens with (name id, start) and closes with (CLOSE or RAISED, end), and
# (OP, id) sets the operation id of the next span to open. Parents are
# recovered from the nesting of the events when the run ends.
CLOSE, RAISED, OP = -1.0, -2.0, -3.0


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self, anchor_ops: bool):
        self.anchor_ops = anchor_ops
        self.names: list[str] = [ROOT]
        self.layer_of: dict[str, str] = {ROOT: ROOT}
        self.counts: Counter = Counter()
        self._events = array("d")
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def root(self, op: int):
        """The benchmark's own span around one operation (a replay or a cycle)."""
        self._events.extend((OP, op, 0, perf_counter()))
        try:
            yield
        except BaseException:
            self._events.extend((RAISED, perf_counter()))
            raise
        self._events.extend((CLOSE, perf_counter()))

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.layer_of:
            self.layer_of[name] = layer
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, name: str, layer: str, options: dict):
        """A wrapper that records a span per call of fn.

        It does as little as it can per call: two appends and two clock
        reads. The wrappers run hundreds of thousands of times per replay,
        and their cost shows in the traced-versus-untraced throughput.
        """
        split = options.get("split")
        if split:
            predicate, if_true, if_false = split
            ids = (self._name_id(if_true, layer), self._name_id(if_false, layer))
        else:
            predicate = None
            ids = (self._name_id(name, layer),)
        op_of = options.get("op") if self.anchor_ops else None
        counter, count = options.get("count", (None, None))
        counts, extend = self.counts, self._events.extend

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if op_of is not None:
                extend((OP, op_of(args)))
            extend((ids[0] if predicate is None or predicate(args) else ids[1], perf_counter()))
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                extend((RAISED, perf_counter()))
                raise
            extend((CLOSE, perf_counter()))
            if count is not None:
                counts[counter] += count(args, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently imported aplf modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for module_name, class_name, attr, name, layer, options in TARGETS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, layer, options))
                else:
                    wrapped = self._wrap(raw, name, layer, options)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
        except BaseException:
            self.uninstall()  # a target is missing: leave no wrapper behind
            raise

    def uninstall(self) -> None:
        """Put back every original object replaced by install()."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results ---------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Every span as parallel arrays, in the order the spans opened.

        name (id into self.names), parent (index of the enclosing span, -1
        for a root), op, start, end and raised. Spans nest strictly, so at
        each depth opens and closes alternate: the k-th open at a depth
        pairs with the k-th close at that depth, and a span's parent is
        the last span opened one level up before it.
        """
        events = np.frombuffer(self._events).reshape(-1, 2)
        code, value = events[:, 0], events[:, 1]
        is_open = code >= 0
        is_close = (code == CLOSE) | (code == RAISED)
        depth = np.cumsum(is_open.astype(np.int64) - is_close)  # nesting depth after each event
        if len(depth) and (depth[-1] != 0 or depth.min() < 0):
            raise RuntimeError("spans taken while spans are open")
        opens, closes = np.flatnonzero(is_open), np.flatnonzero(is_close)
        level = depth[opens]  # 1 for a root
        by_level = np.lexsort((opens, level))
        closing = closes[np.lexsort((closes, depth[closes] + 1))]
        end, raised = np.empty(len(opens)), np.empty(len(opens), dtype=bool)
        end[by_level] = value[closing]
        raised[by_level] = code[closing] == RAISED

        keys = level[by_level] * len(code) + opens[by_level]
        up = by_level[np.maximum(np.searchsorted(keys, (level - 1) * len(code) + opens) - 1, 0)]
        parent = np.where(level > 1, up, -1)

        before = np.maximum(opens - 1, 0)
        tagged = (opens > 0) & (code[before] == OP)
        op = np.where(tagged, value[before], -1).astype(np.int64)
        for d in range(2, int(level.max(initial=1)) + 1):
            inherit = (level == d) & ~tagged
            op[inherit] = op[parent[inherit]]
        return {"name": code[opens].astype(np.int32), "parent": parent, "op": op,
                "start": value[opens], "end": end, "raised": raised}

    def summary(self) -> "TraceSummary":
        return TraceSummary(self)

    def dump(self, path) -> None:
        """Write every span, and the span names, to a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def nesting_problems(spans: dict[str, np.ndarray]) -> list[str]:
    """Ways in which recorded spans fail to nest; empty when they nest strictly.

    Every span must end no earlier than it starts and lie inside its
    parent, and the children of one parent must not overlap. Self times
    are then never negative, and no time is counted twice.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    problems = []
    backwards = np.count_nonzero(end < start)
    if backwards:
        problems.append(f"{backwards} spans end before they start")
    child = np.flatnonzero(parent >= 0)
    up = parent[child]
    outside = np.count_nonzero((start[child] < start[up]) | (end[child] > end[up]))
    if outside:
        problems.append(f"{outside} spans lie partly outside their parent")
    siblings = child[np.lexsort((child, up))]  # children grouped by parent, in opening order
    same = parent[siblings[1:]] == parent[siblings[:-1]]
    overlapping = np.count_nonzero(same & (start[siblings[1:]] < end[siblings[:-1]]))
    if overlapping:
        problems.append(f"{overlapping} spans overlap an earlier sibling")
    return problems


class TraceSummary:
    """Per-name call counts and inclusive and self times, and per-layer self times.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans add up to the summed duration
    of the root spans whatever the spans are. That sum only means something
    when `problems` is empty, that is when the spans nest strictly.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.spans()
        n_names = len(tracer.names)
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - children
        self.names = tracer.names
        self.counts = dict(tracer.counts)
        self._calls = np.bincount(name, minlength=n_names)
        self._total = np.bincount(name, weights=duration, minlength=n_names)
        self._self = np.bincount(name, weights=self_time, minlength=n_names)
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        for i, span_name in enumerate(tracer.names):
            self.layer_self[tracer.layer_of[span_name]] += float(self._self[i])
        self.roots = int(np.count_nonzero(~has_parent))
        self.wall = float(duration[~has_parent].sum())
        self.root_seconds = dict(zip(spans["op"][~has_parent].tolist(), duration[~has_parent].tolist()))
        self.raised = int(np.count_nonzero(spans["raised"]))
        self.problems = nesting_problems(spans)

    def _row(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls(self, name: str) -> int:
        i = self._row(name)
        return int(self._calls[i]) if i >= 0 else 0

    def total(self, name: str) -> float:
        i = self._row(name)
        return float(self._total[i]) if i >= 0 else 0.0

    def self_time(self, name: str) -> float:
        i = self._row(name)
        return float(self._self[i]) if i >= 0 else 0.0

    def per_call(self, name: str, scale: float) -> float:
        """Mean inclusive time per call times scale; 0 when the name was never called."""
        calls = self.calls(name)
        return self.total(name) / calls * scale if calls else 0.0
