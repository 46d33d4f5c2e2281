"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The tracer replaces public names of the library with timed wrappers while
it is installed, and puts the originals back on exit.  Each wrapped call
records its count, its span (total time) and its self time: the span minus
the spans of wrapped calls nested inside it.  Everything stays in memory;
the benchmark reads the aggregates when the traced phase ends.

A name that does not resolve (a module, class or attribute that no longer
exists) is recorded as absent instead of raising, so a traced run keeps
working when the library is restructured.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Stat:
    __slots__ = ("calls", "total", "self_time", "count")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.count = 0  # work units reported by the name's counter, if any

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "count": self.count}


class Tracer:
    """Installs timed wrappers around a set of dotted names.

    `targets` maps a span name to (module, qualified attribute, counter),
    where counter is None or a function of (args, result) giving the work
    units one call did (for example the edges one vectorized kernel call
    evaluated).
    """

    def __init__(self, targets: dict):
        self.targets = targets
        self.stats = {name: Stat() for name in targets}
        self.absent = []
        self._stack = []
        self._undo = []

    def reset(self):
        self.stats = {name: Stat() for name in self.targets}

    @contextmanager
    def installed(self):
        self.absent = []
        for name, (module, qualname, counter) in self.targets.items():
            try:
                owner, attr, raw = _resolve(module, qualname)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, raw, counter))
            self._undo.append((owner, attr, raw))
        try:
            yield self
        finally:
            while self._undo:
                owner, attr, raw = self._undo.pop()
                setattr(owner, attr, raw)
            self._stack.clear()

    def _wrap(self, name, raw, counter):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._timed(name, raw.__func__, counter))
        return self._timed(name, raw, counter)

    def _timed(self, name, fn, counter):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += span
                stat = tracer.stats[name]
                stat.calls += 1
                stat.total += span
                stat.self_time += span - nested
            if counter is not None:
                stat.count += counter(args, out)
            return out

        return timed


def _resolve(module: str, qualname: str):
    """(owner object, attribute name, raw attribute) for module:qualname.

    Class attributes are read from the class __dict__ so classmethods and
    staticmethods are wrapped as descriptors, not as bound functions.
    """
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _size(args, out) -> int:
    return int(np.size(args[1]))


def _diff_len(args, out) -> int:
    return len(args[1])


# span name -> (module, attribute path, work counter).  Spans are taken
# around public names from outside the library: binomial_draw is wrapped
# where the sparsifier looks it up, the WSPD functions in their module,
# which the sparsifier reads at call time.
TARGETS = {
    "quadtree.insert": ("geospar.quadtree", "CompressedQuadTree.insert", None),
    "quadtree.delete": ("geospar.quadtree", "CompressedQuadTree.delete", None),
    "quadtree.locate_key": ("geospar.quadtree", "CompressedQuadTree.locate_key", None),
    "quadtree.kth_leaf": ("geospar.quadtree", "CompressedQuadTree.kth_leaf", None),
    "quadtree.subtree_ids": ("geospar.quadtree", "CompressedQuadTree.subtree_ids", None),
    "wspd.find_modified_pairs": ("geospar.wspd", "find_modified_pairs", None),
    "wspd.compute_wspd": ("geospar.wspd", "compute_wspd", None),
    "sampling.binomial_draw": ("geospar.sparsifier", "binomial_draw", None),
    "kernels.eval": ("geospar.kernels", "KernelFunction.eval", None),
    "kernels.eval_sqdist": ("geospar.kernels", "KernelFunction.eval_sqdist", _size),
    "projection.project": ("geospar.projection", "UltraJlMap.project", None),
    "sparsifier.initialize": ("geospar.sparsifier", "DynamicGeoSpar.initialize", None),
    "sparsifier.update": ("geospar.sparsifier", "DynamicGeoSpar.update", None),
    "sparsifier.get_diff": ("geospar.sparsifier", "DynamicGeoSpar.get_diff", None),
    "distance.query": ("geospar.distance", "UltraJlStore.query", None),
    "distance.update": ("geospar.distance", "UltraJlStore.update", None),
    "sketches.multiply.init": ("geospar.sketches", "MultiplyState.__init__", None),
    "sketches.multiply.update_g": ("geospar.sketches", "MultiplyState.update_g", None),
    "sketches.multiply.apply_graph_diff": (
        "geospar.sketches", "MultiplyState.apply_graph_diff", _diff_len),
    "sketches.multiply.update_v": ("geospar.sketches", "MultiplyState.update_v", None),
    "sketches.multiply.query": ("geospar.sketches", "MultiplyState.query", None),
    "sketches.solve.init": ("geospar.sketches", "SolveState.__init__", None),
    "sketches.solve.update_g": ("geospar.sketches", "SolveState.update_g", None),
    "sketches.solve.apply_graph_diff": (
        "geospar.sketches", "SolveState.apply_graph_diff", _diff_len),
    "sketches.solve.update_b": ("geospar.sketches", "SolveState.update_b", None),
    "sketches.solve.query": ("geospar.sketches", "SolveState.query", None),
}


def make_tracer() -> Tracer:
    return Tracer(TARGETS)


def layer_metrics(setup: dict, builds: int, setup_pairs: int, loop: dict,
                  ops: int, reports: list, sampled_moves: int,
                  slowdown: float, absent: list) -> dict:
    """Per-layer metrics from the set-up and loop span aggregates.

    Loop figures are per operation of the traced loop (s/op, calls/op) or
    per move; set-up figures are per build.  Every `_s` figure is self
    time, so nested layers are not counted twice.
    """
    per_op = 1.0 / max(1, ops)

    def calls(*names):
        return sum(loop[n].calls for n in names) * per_op

    def self_s(*names):
        return sum(loop[n].self_time for n in names) * per_op

    def setup_s(*names):
        return sum(setup[n].self_time for n in names) / builds

    def per_move(field):
        return statistics.fmean(getattr(r, field) for r in reports) if reports else 0.0

    m = {
        "quadtree.mutate_calls": (calls("quadtree.insert", "quadtree.delete"), "calls/op"),
        "quadtree.mutate_s": (self_s("quadtree.insert", "quadtree.delete"), "s/op"),
        "quadtree.locate_s": (self_s("quadtree.locate_key"), "s/op"),
        "quadtree.subtree_ids_calls": (calls("quadtree.subtree_ids"), "calls/op"),
        "quadtree.subtree_ids_s": (self_s("quadtree.subtree_ids"), "s/op"),
        "quadtree.kth_leaf_calls": (calls("quadtree.kth_leaf"), "calls/op"),
        "quadtree.kth_leaf_s": (self_s("quadtree.kth_leaf"), "s/op"),
        "wspd.find_modified_pairs_self_s": (self_s("wspd.find_modified_pairs"), "s/op"),
        "wspd.pairs_touched_per_move": (per_move("pairs_touched"), "pairs/move"),
        "wspd.compute_s": (setup_s("wspd.compute_wspd"), "s"),
        "wspd.pairs": (setup_pairs, "count"),
        "sampling.binomial_draw_calls": (calls("sampling.binomial_draw"), "calls/op"),
        "sampling.binomial_draw_s": (self_s("sampling.binomial_draw"), "s/op"),
        "sparsifier.sampled_move_share": (
            sampled_moves / len(reports) if reports else 0.0, "ratio"),
        "kernels.eval_calls": (calls("kernels.eval"), "calls/op"),
        "kernels.eval_s": (self_s("kernels.eval"), "s/op"),
        "kernels.eval_sqdist_edges": (
            loop["kernels.eval_sqdist"].count * per_op, "edges/op"),
        "kernels.eval_sqdist_s": (self_s("kernels.eval_sqdist"), "s/op"),
        "sparsifier.update_self_s": (self_s("sparsifier.update"), "s/op"),
        "sparsifier.get_diff_s": (self_s("sparsifier.get_diff"), "s/op"),
        "sparsifier.initialize_s": (setup_s("sparsifier.initialize"), "s"),
        "sparsifier.diff_entries_per_move": (per_move("edges_changed"), "entries/move"),
        "sketches.mul_graph_s": (self_s("sketches.multiply.apply_graph_diff"), "s/op"),
        "sketches.solve_graph_s": (self_s("sketches.solve.apply_graph_diff"), "s/op"),
        "sketches.diff_entries_folded": (
            (loop["sketches.multiply.apply_graph_diff"].count
             + loop["sketches.solve.apply_graph_diff"].count) * per_op, "entries/op"),
        "sketches.update_v_s": (self_s("sketches.multiply.update_v"), "s/op"),
        "sketches.update_b_s": (self_s("sketches.solve.update_b"), "s/op"),
        "sketches.query_s": (self_s("sketches.multiply.query", "sketches.solve.query"), "s/op"),
        "sketches.init_s": (setup_s("sketches.multiply.init", "sketches.solve.init"), "s"),
        "projection.project_calls": (calls("projection.project"), "calls/op"),
        "projection.project_s": (self_s("projection.project"), "s/op"),
        "distance.query_s": (self_s("distance.query"), "s/op"),
        "distance.update_s": (self_s("distance.update"), "s/op"),
        "trace.slowdown": (slowdown, "ratio"),
        "trace.absent_names": (len(absent), "count"),
    }
    for kind in ("added", "removed", "resampled", "rematerialized", "reweighted"):
        m[f"sparsifier.pairs_{kind}_per_move"] = (per_move(f"pairs_{kind}"), "pairs/move")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
