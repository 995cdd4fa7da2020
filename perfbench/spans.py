"""Nested spans around speiserlab's public functions, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` at every module
attribute of the ``speiserlab`` package that refers to it, so calls made by
the library itself (``run_theorem1`` calling ``vel_type_trend``, ``doyle_test``
calling ``upsilon_resistance_curve``) are recorded as well as calls made by
the benchmark.  ``RotationGraph.from_walks`` is replaced on the class.

A span is ``[name, start, end, parent]``; spans are recorded only inside an
operation span opened with ``Tracer.op``, so the benchmark's own output
checks stay untraced.  A span's self time is its duration minus the
durations of its direct children.  Work counts are read from the arguments
and results of the traced calls; none of them reaches into private code:

* ``vel.outer_iterations`` / ``vel.constraints``: ``iterations`` of every
  ``solve_vel`` estimate (cutting-plane rounds, paths in the QP);
* ``graph_core.darts_built``: ``n_darts`` of every graph returned by
  ``from_walks``, ``dual`` and ``build_graph``;
* ``walk.solves``: radii solved by ``resistance_curve`` and
  ``upsilon_resistance_curve``;
* ``packing.sweeps``: ``diagnostics["sweeps"]`` of every ``pack_disk``
  result, and ``packing.corner_evals`` = sweeps x the sum of interior
  degrees (a computed operation count);
* ``fatness.mc_points``: Monte Carlo points requested, computed from the
  arguments of ``check_hs`` (overlap samples) and ``fatness_estimate``
  (centers plus points per center and radius, counting radii it skips).
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _pack_disk(counts, values, bound, p):
    sweeps = int(p.diagnostics.get("sweeps", 0))
    counts["packing.sweeps"] += sweeps
    counts["packing.corner_evals"] += sweeps * sum(p.graph.degree(v) for v in p.interior)


def _solve_vel(counts, values, bound, est):
    counts["vel.outer_iterations"] += int(est.iterations.get("outer", 0))
    counts["vel.constraints"] += int(est.iterations.get("n_constraints", 0))
    counts["vel.attempted"] += 1
    counts["vel.converged"] += bool(est.converged)
    if math.isfinite(est.upper) and est.upper > 0:
        values["vel.rel_gap"].append((est.upper - est.lower) / est.upper)


def _darts(counts, values, bound, result):
    g = result[0] if isinstance(result, tuple) else result
    counts["graph_core.darts_built"] += g.n_darts


def _radii(counts, values, bound, curve):
    counts["walk.solves"] += len(curve.radii)


def _check_hs(counts, values, bound, report):
    n_sets = len(bound.arguments["collection"].sets)
    counts["fatness.mc_points"] += max(1, bound.arguments["samples"] // n_sets) * n_sets


def _fatness_estimate(counts, values, bound, tau):
    a = bound.arguments
    n_points = 9 * len(a["s"].disks) + a["n_centers"]
    counts["fatness.mc_points"] += a["n_centers"] + n_points * a["n_radii"] * a["n_samples"]


# (module, attribute, hook on the result); the span name is module.function
TARGETS = (
    ("cli", "main", None),
    ("theorem1", "run_theorem1", None),
    ("theorem1", "build_gamma", None),
    ("theorem1", "verify_growth", None),
    ("theorem1", "verify_upsilon_bounds", None),
    ("vel", "vel_type_trend", None),
    ("vel", "solve_vel", _solve_vel),
    ("graph_core", "RotationGraph.from_walks", _darts),
    ("graph_core", "trace_faces", None),
    ("graph_core", "bfs_layers", None),
    ("graph_core", "classify", None),
    ("graph_core", "dual", _darts),
    ("graph_core", "to_json", None),
    ("graph_core", "build_graph", _darts),
    ("speiser", "tree_replace", None),
    ("speiser", "lambda_triangulation", None),
    ("speiser", "extend_speiser", None),
    ("speiser", "speiser_ball", None),
    ("speiser", "extended_layer_counts", None),
    ("refinement", "subdivide4", None),
    ("refinement", "check_refinement", None),
    ("lattices", "triangular_ball", None),
    ("walk", "resistance_curve", _radii),
    ("walk", "upsilon_resistance_curve", _radii),
    ("walk", "doyle_test", None),
    ("packing", "ratio_trend", None),
    ("packing", "pack_disk", _pack_disk),
    ("packing", "verify_packing", None),
    ("packing", "inscribed_collection", None),
    ("fatness", "check_hs", _check_hs),
    ("fatness", "fatness_estimate", _fatness_estimate),
)

COUNTS = (
    "vel.outer_iterations",
    "vel.constraints",
    "graph_core.darts_built",
    "walk.solves",
    "packing.sweeps",
    "packing.corner_evals",
    "fatness.mc_points",
)

OP = "bench.op"  # operation spans; their self time is the benchmark's glue


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and work counts of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list = []

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; library spans nest inside."""
        idx = self._open(f"{OP}:{name}")
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, self.values, bound, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "speiserlab" or n.startswith("speiserlab."))
        ]
        for module, attr, hook in TARGETS:
            name = span_name(module, attr)
            owner = sys.modules[f"speiserlab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                wrapped = classmethod(self._wrap(name, orig.__func__, hook))
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def summary(self) -> dict:
        """Self times and call counts per span name, work counts, value lists."""
        self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            key = OP if name.startswith(OP) else name
            self_s[key] += end - start
            calls[key] += 1
            if parent is not None:
                pname = self.spans[parent][0]
                self_s[OP if pname.startswith(OP) else pname] -= end - start
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
            "values": dict(self.values),
        }
