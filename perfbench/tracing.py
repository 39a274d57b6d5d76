"""In-memory span tracer for the traced run, and the per-layer aggregation.

Each layer's public functions are wrapped at the binding its caller uses
(``treetweak.cli.tweak``, ``treetweak.tweaker.predict_ensemble``, ...) and
every entry of ``costs.COST_FUNCTIONS``; no file under ``src/`` changes. A
span is ``(id, parent, name, start_ns, end_ns)``. Spans are kept in memory
and written out once, after the traced passes.

``tweak`` searches trees on a thread pool, so a span opened on a worker
thread with no open span of its own gets the main thread's innermost open
span as parent. Layer times are measured as the union of intervals, so
spans that overlap on two threads are not counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time

# (module, attribute, span name). A binding missing from the module is
# skipped, so the tracer keeps working when a function is removed.
BINDINGS = (
    ("treetweak.cli", "load_model", "forest.load_model"),
    ("treetweak.cli", "save_model", "forest.save_model"),
    ("treetweak.cli", "predict_ensemble", "forest.predict_ensemble"),
    ("treetweak.cli", "load_instances", "feature_space.load_instances"),
    ("treetweak.cli", "load_table", "feature_space.load_table"),
    ("treetweak.cli", "stratified_split", "trainer.stratified_split"),
    ("treetweak.cli", "train_forest", "trainer.train_forest"),
    ("treetweak.cli", "evaluate_classifier", "trainer.evaluate_classifier"),
    ("treetweak.cli", "tweak", "tweaker.tweak"),
    ("treetweak.cli", "sweep", "tweaker.sweep"),
    ("treetweak.cli", "top_k_transformations", "recommend.top_k_transformations"),
    ("treetweak.cli", "diff_to_recommendations", "recommend.diff_to_recommendations"),
    ("treetweak.cli", "categorical_switches", "recommend.categorical_switches"),
    ("treetweak.tweaker", "predict_ensemble", "forest.predict_ensemble"),
    ("treetweak.tweaker", "predict_tree", "forest.predict_tree"),
    ("treetweak.trainer", "predict_ensemble", "forest.predict_ensemble"),
    ("treetweak.trainer", "positive_vote_fraction", "forest.positive_vote_fraction"),
)

COMMAND_SPAN = "cli.main"

# Span names that also count towards a group's busy time.
GROUPS = {
    "forest.predict_ensemble": "forest.predict",
    "forest.predict_tree": "forest.predict",
    "forest.positive_vote_fraction": "forest.predict",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore: list = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else -1
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))

        return traced

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
        costs = importlib.import_module("treetweak.costs")
        table = costs.COST_FUNCTIONS
        for key, fn in list(table.items()):
            self._restore.append((table, key, fn))
            table[key] = self.wrap(f"costs.{key}", fn)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns"],
                       "spans": self.spans}, fh)


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _gaps(start, end, children):
    """Pieces of [start, end) not covered by any child interval."""
    pieces = []
    cursor = start
    for c_start, c_end in sorted(children):
        if c_start > cursor:
            pieces.append((cursor, min(c_start, end)))
        cursor = max(cursor, c_end)
        if cursor >= end:
            break
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


def layer_times(spans) -> dict[str, float]:
    """Busy and self seconds per layer and per span name, plus call counts.

    ``busy:<x>`` is the time at least one span of layer, group or name
    ``x`` was open; ``self:<layer>`` subtracts the intervals of each span's children.
    ``calls:<name>`` counts spans.
    """
    children: dict[int, list] = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    busy: dict[str, list] = {}
    own: dict[str, list] = {}
    calls: dict[str, int] = {}
    for sid, _parent, name, start, end in spans:
        layer = name.split(".", 1)[0]
        for key in (name, layer, GROUPS.get(name)):
            if key is None:
                continue
            busy.setdefault(key, []).append((start, end))
        calls[name] = calls.get(name, 0) + 1
        own.setdefault(layer, []).extend(_gaps(start, end, children.get(sid, ())))
    out = {f"busy:{k}": _union(v) / 1e9 for k, v in busy.items()}
    out.update({f"self:{k}": _union(v) / 1e9 for k, v in own.items()})
    out.update({f"calls:{k}": v for k, v in calls.items()})
    return out
