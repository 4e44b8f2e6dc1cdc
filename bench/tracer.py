"""Per-layer spans for the traced benchmark run, recorded from outside cete.

The package has no instrumentation of its own yet, so the traced run
replaces public names in cete's modules with timing wrappers, under the
names their callers look them up by, and restores the originals after
each traced operation. Every wrapper opens a span; a span's self time is
its duration minus the durations of the spans opened inside it, so the
self times of all layers add up to the time of the outermost spans.

Bookkeeping that is not part of cete's work (counting tied values, for
instance) runs between spans and is excluded from every enclosing span;
it still shows in the traced wall time, which is how the tracing overhead
is measured.

A target missing from its module (renamed or deleted by a refactor) is
skipped and listed in ``Recorder.absent`` instead of failing the run.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "ingest", "core", "causality", "copula", "knn_entropy")

# (module, name looked up there, span name); the layer is the span's prefix
FUNCTION_TARGETS = (
    ("cete.cli", "parse_pm25_csv", "ingest.parse"),
    ("cete.cli", "select_window", "ingest.window"),
    ("cete.cli", "to_series_matrix", "ingest.to_matrix"),
    ("cete.cli", "lag_scan", "causality.scan"),
    ("cete.ingest", "validate_matrix", "core.validate"),
    ("cete.causality", "lag_scan", "causality.scan"),
    ("cete.causality", "transfer_entropy", "causality.te"),
    ("cete.causality", "build_embedding", "causality.embed"),
    ("cete.causality", "validate_matrix", "core.validate"),
    ("cete.causality", "copula_entropy", "copula.ce"),
    ("cete.copula", "rank_transform", "copula.rank"),
    ("cete.copula", "kl_entropy", "knn_entropy.kl"),
    ("cete.knn_entropy", "knn_distances", "knn_entropy.knn"),
    ("cete.knn_entropy", "_kth_distance_brute", "knn_entropy.brute"),
)
TREE_TARGET = ("cete.knn_entropy", "cKDTree")


class Recorder:
    """Span durations, self times and counters, summed over traced operations."""

    def __init__(self):
        self.total = defaultdict(float)    # span name -> summed duration
        self.self_time = defaultdict(float)  # span name -> summed self time
        self.count = defaultdict(float)    # counter name -> summed value
        self.outer = 0.0                   # summed duration of outermost spans
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []
        self._excluded = 0.0

    def begin(self) -> list[float]:
        frame = [perf_counter(), self._excluded, 0.0]
        self._stack.append(frame)
        return frame

    def end(self, frame: list[float], name: str) -> float:
        dur = perf_counter() - frame[0] - (self._excluded - frame[1])
        self._stack.pop()
        self.total[name] += dur
        self.self_time[name] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.outer += dur
        return dur

    def add_outer(self, name: str, dur: float) -> None:
        """Record an outermost span timed elsewhere, such as in a child process."""
        self.total[name] += dur
        self.self_time[name] += dur
        self.outer += dur

    def call(self, name: str, fn, *args, **kwargs):
        frame = self.begin()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(frame, name)

    def exclude_since(self, start: float) -> None:
        self._excluded += perf_counter() - start

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items()
                   if k.split(".", 1)[0] == layer)


def _tied_values(matrix) -> tuple[int, int]:
    values = np.asarray(matrix.values)
    tied = 0
    for j in range(values.shape[1]):
        tied += values.shape[0] - np.unique(values[:, j]).size
    return tied, values.size


def _after(rec: Recorder, name: str, args, out) -> None:
    """Counters read from a call's arguments and result, outside its span."""
    if name == "causality.te":
        rec.count["causality.te_calls"] += 1
        rec.count["causality.n_effective_sum"] += out.n_effective
    elif name == "causality.embed":
        rec.count["causality.embed_calls"] += 1
    elif name == "core.validate":
        rec.count["core.validate_calls"] += 1
    elif name == "copula.ce":
        rec.count["copula.ce_calls"] += 1
    elif name == "copula.rank":
        tied, size = _tied_values(args[0])
        rec.count["copula.rank_calls"] += 1
        rec.count["copula.rank_columns"] += out.values.shape[1]
        rec.count["copula.tied_values"] += tied
        rec.count["copula.ranked_values"] += size
    elif name == "knn_entropy.knn":
        rec.count["knn_entropy.calls"] += 1
        rec.count["knn_entropy.points"] += out.n
    elif name == "ingest.parse":
        rec.count["ingest.rows"] += len(out)


def _wrap(rec: Recorder, fn, name: str):
    from cete.errors import DuplicatePointsError

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = rec.begin()
        try:
            out = fn(*args, **kwargs)
        except DuplicatePointsError as err:
            # counted once, by the innermost span it passes through
            if not getattr(err, "traced_count", False):
                err.traced_count = True
                rec.count["knn_entropy.zero_dist_errors"] += 1
            raise
        finally:
            rec.end(frame, name)
        start = perf_counter()
        _after(rec, name, args, out)
        rec.exclude_since(start)
        return out

    return traced


class _TracedTree:
    """cKDTree stand-in whose query is timed and tagged with the dimension."""

    def __init__(self, rec: Recorder, tree):
        self._rec = rec
        self._tree = tree

    def query(self, *args, **kwargs):
        frame = self._rec.begin()
        try:
            return self._tree.query(*args, **kwargs)
        finally:
            dur = self._rec.end(frame, "knn_entropy.query")
            self._rec.count[f"knn_entropy.query_s.d{self._tree.m}"] += dur

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def _wrap_tree(rec: Recorder, tree_cls):
    def traced_tree(*args, **kwargs):
        return _TracedTree(rec, rec.call("knn_entropy.build", tree_cls,
                                         *args, **kwargs))

    return traced_tree


def install(rec: Recorder):
    """Wrap every target in the cete modules already imported.

    Returns a function that restores the originals.
    """
    saved = []
    targets = [(m, n, functools.partial(_wrap, rec, name=s))
               for m, n, s in FUNCTION_TARGETS]
    targets.append((*TREE_TARGET, functools.partial(_wrap_tree, rec)))
    for module_name, attr, make in targets:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        if not hasattr(module, attr):
            rec.absent.add(f"{module_name}.{attr}")
            continue
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore
