"""Numerical vertex extremal length on finite annuli.

For vertex sets A, B in a finite graph, the quantity optimized is
``sup_m dist_m(A, B)^2 / area(m)`` where a path's length is the sum of the
weights of every vertex it visits (endpoints included) and the area is the
sum of squared weights.  The solver is the cutting-plane scheme of Albin,
Brunner, Perez, Poggi-Corradini and Wiens (2015): minimize the area subject
to unit length on a growing family of shortest paths.  Each round's
quadratic program is solved exactly on its dual by an active-set loop over
the Gram matrix of path overlaps, so the metric stays a nonnegative
combination of path indicators.  Rounds reuse each other's work: the Gram
matrix is kept for the whole solve and grows by one row and column per
added path, and each round's active set starts from the previous round's
positive multipliers plus the new path.

Lower bounds are certified by the returned metric, upper bounds by a greedy
maximal family of vertex-disjoint A-B paths found by breadth-first search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .errors import FrontierError, GraphError
from .graph_core import LayerDecomposition, RotationGraph
from .refinement import VMetric
from .trend import (
    HYPERBOLIC,
    INCONCLUSIVE,
    PARABOLIC,
    classify_cumulative_sums,
)


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_paths: int = 200
    qp_iterations: int = 2000


@dataclass
class VelEstimate:
    lower: float
    upper: float
    metric: VMetric
    paths: list[tuple[int, ...]]
    iterations: dict = field(default_factory=dict)
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "converged": self.converged,
            "iterations": self.iterations,
            "n_disjoint_paths": len(self.paths),
        }


def metric_objective(
    g: RotationGraph, A: set[int], B: set[int], m: VMetric
) -> dict:
    """dist = min total vertex weight over A-B paths; area = sum m^2."""
    if not A or not B or A & B:
        raise GraphError("A and B must be nonempty and disjoint")
    dist = _shortest_weighted(g, A, B, m)
    area = m.area()
    ratio = (dist * dist / area) if area > 0 and math.isfinite(dist) else (
        math.inf if not math.isfinite(dist) else 0.0
    )
    if area == 0:
        ratio = 0.0
    return {"dist": dist, "area": area, "ratio": ratio}


def _shortest_weighted(g, A, B, m) -> float:
    import heapq

    dist = {a: m[a] for a in A}
    heap = [(m[a], a) for a in sorted(A)]
    heapq.heapify(heap)
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v in B:
            return d
        for dart in g.rotations[v]:
            w = g.dart_vertex[dart ^ 1]
            nd = d + m[w]
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return math.inf


class _Subproblem:
    """Support-restricted instance with scipy adjacency and path machinery."""

    def __init__(self, g: RotationGraph, A, B, support=None):
        if support is None:
            support = range(g.n_vertices)
        self.nodes = sorted(set(support))
        self.local = {v: i for i, v in enumerate(self.nodes)}
        self.A = sorted(self.local[a] for a in A if a in self.local)
        self.B = sorted(self.local[b] for b in B if b in self.local)
        if not self.A or not self.B:
            raise GraphError("A and B must meet the support")
        self.n = len(self.nodes)
        rows, cols = [], []
        local = self.local
        for v in self.nodes:
            lv = local[v]
            for d in g.rotations[v]:
                w = g.dart_vertex[d ^ 1]
                lw = local.get(w)
                if lw is not None:
                    rows.append(lv)
                    cols.append(lw)
        # one extra row: the virtual source feeding all of A
        src = self.n
        for a in self.A:
            rows.append(src)
            cols.append(a)
        self.rows = np.asarray(rows, dtype=np.int32)
        self.cols = np.asarray(cols, dtype=np.int32)
        self.src = src
        self.b_mask = np.zeros(self.n + 1, dtype=bool)
        self.b_mask[self.B] = True
        # one entry per arc: parallel edges collapse, so an arc into w costs
        # m[w] once; each round refills only the data
        self._graph = csr_matrix(
            (np.ones(len(rows)), (self.rows, self.cols)), shape=(self.n + 1, self.n + 1)
        )

    def shortest_path(self, m: np.ndarray) -> tuple[float, np.ndarray] | None:
        """Min vertex-weight A-B path; returns (length, local vertex indices)."""
        self._graph.data = m[self._graph.indices].astype(float)
        dist, pred = dijkstra(
            self._graph, directed=True, indices=self.src, return_predecessors=True
        )
        dist_b = np.where(self.b_mask, dist, np.inf)
        best = int(np.argmin(dist_b))
        if not np.isfinite(dist_b[best]):
            return None
        return float(dist_b[best]), self._walk_back(pred, best)

    def disjoint_path_family(self) -> list[np.ndarray]:
        """Greedy maximal family of vertex-disjoint A-B paths (fewest vertices).

        Each path is the BFS-tree path from the virtual source to the first
        B vertex in BFS order, over the edges whose ends are both alive.
        """
        alive = np.ones(self.n + 1, dtype=bool)  # the virtual source stays
        family = []
        while True:
            keep = alive[self.rows] & alive[self.cols]
            adj = csr_matrix(
                (np.ones(int(keep.sum())), (self.rows[keep], self.cols[keep])),
                shape=(self.n + 1, self.n + 1),
            )
            order, pred = breadth_first_order(
                adj, self.src, directed=True, return_predecessors=True
            )
            hits = order[self.b_mask[order]]
            if not len(hits):
                return family
            path = self._walk_back(pred, int(hits[0]))
            family.append(path)
            alive[path] = False

    def _walk_back(self, pred: np.ndarray, v: int) -> np.ndarray:
        """Local vertices of the tree path from the virtual source to ``v``."""
        path = []
        while v != self.src and v >= 0:
            path.append(v)
            v = pred[v]
        path.reverse()
        return np.asarray(path, dtype=np.int64)


class _PathGram:
    """Pairwise overlap counts of the cutting-plane paths, grown in place.

    ``gram`` is allocated once at ``capacity x capacity``; adding a path fills
    only its row and column, from one length-``n`` indicator of the new path
    summed over every stored path.  The entries are exact integer counts.
    """

    def __init__(self, n: int, capacity: int):
        self.gram = np.empty((capacity, capacity))
        self.paths: list[np.ndarray] = []
        self._ind = np.zeros(n)
        self._flat = np.empty(0, dtype=np.int64)
        self._starts: list[int] = []

    def add(self, path: np.ndarray) -> None:
        k = len(self.paths)
        self.paths.append(path)
        self._starts.append(len(self._flat))
        self._flat = np.concatenate([self._flat, path])
        self._ind[path] = 1.0
        row = np.add.reduceat(self._ind[self._flat], self._starts)
        self._ind[path] = 0.0
        self.gram[k, : k + 1] = row
        self.gram[: k + 1, k] = row

    @property
    def block(self) -> np.ndarray:
        """The leading k x k block for the k stored paths."""
        k = len(self.paths)
        return self.gram[:k, :k]


def solve_vel(
    g: RotationGraph,
    A: set[int],
    B: set[int],
    opts: SolverOptions | None = None,
    support=None,
) -> VelEstimate:
    """Bracket the vertex extremal length between A and B.

    ``support`` optionally restricts both the paths and the metric to a vertex
    subset (the annulus).  The returned ``lower`` is recomputed from the
    stored metric, so it is a certificate independent of the solver run.
    """
    opts = opts or SolverOptions()
    A, B = set(A), set(B)
    if not A or not B or A & B:
        raise GraphError("A and B must be nonempty and disjoint")
    sub = _Subproblem(g, A, B, support=support)

    family = sub.disjoint_path_family()
    if not family:
        return VelEstimate(
            lower=math.inf,
            upper=math.inf,
            metric=VMetric({}),
            paths=[],
            iterations={"note": "A and B are disconnected"},
            converged=True,
        )
    upper = max(len(p) for p in family) / len(family)

    m = np.zeros(sub.n)
    store = _PathGram(sub.n, opts.max_paths)
    lam = np.zeros(0)
    qp_exact = True
    n_iter = 0
    converged = False
    while n_iter < opts.max_paths:
        n_iter += 1
        found = sub.shortest_path(m)
        if found is None:
            raise GraphError("separation failed on a connected instance")
        length, path = found
        if length >= 1.0 - opts.tol:
            converged = True
            break
        store.add(path)
        lam, exact = _solve_qp(store.block, np.append(lam > 0, True), opts)
        qp_exact = qp_exact and exact
        m = _path_metric(store.paths, lam, sub.n)

    found = sub.shortest_path(m)
    dist = found[0] if found else math.inf
    area = float(m @ m)
    lower = dist * dist / area if area > 0 else 0.0

    metric = VMetric({sub.nodes[i]: float(m[i]) for i in range(sub.n) if m[i] > 0})
    family_paths = [tuple(sub.nodes[i] for i in p) for p in family]
    est = VelEstimate(
        lower=lower,
        upper=upper,
        metric=metric,
        paths=family_paths,
        iterations={"outer": n_iter, "n_constraints": len(store.paths)},
        converged=converged and qp_exact,
    )
    if est.lower > est.upper + 1e-9:
        raise GraphError("certified bounds crossed; solver bug")
    return est


def _solve_qp(
    gram: np.ndarray, active: np.ndarray, opts: SolverOptions
) -> tuple[np.ndarray, bool]:
    """Exact solve of: min ||m||^2, m >= 0, sum of m over each path >= 1.

    Works on the dual: m = sum lam_p * indicator(p) with lam >= 0, where the
    active multipliers satisfy the Gram system G lam = 1 (``gram`` counts
    pairwise path overlaps; ``solve_vel`` keeps it across rounds and passes
    its leading block).  An active-set loop drops the most negative
    multiplier and adds the most violated constraint until KKT holds.
    ``active`` is the starting set: all ones is a cold start, and
    ``solve_vel`` warm-starts from the previous round's positive multipliers
    plus the new path.  The optimal metric is unique, so both starts end at
    the same m.

    Returns the multipliers and whether KKT was met within
    ``opts.qp_iterations`` solves; if it was not, the multipliers are the
    last nonnegative ones found (zeros if there were none).
    """
    k = len(gram)
    active = active.copy()
    lam = np.zeros(k)
    for _ in range(opts.qp_iterations):
        idx = np.flatnonzero(active)
        G = gram[np.ix_(idx, idx)]
        try:
            sol = np.linalg.solve(G, np.ones(len(idx)))
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(G, np.ones(len(idx)), rcond=None)
        if len(sol) and sol.min() < -1e-12:
            active[idx[int(np.argmin(sol))]] = False
            continue
        lam[:] = 0.0
        lam[idx] = np.maximum(sol, 0.0)
        lengths = gram @ lam
        slack = 1.0 - lengths
        slack[idx] = 0.0
        worst = int(np.argmax(slack))
        if slack[worst] > 1e-12:
            active[worst] = True
            continue
        return lam, True
    return lam, False


def _path_metric(paths: list[np.ndarray], lam: np.ndarray, n: int) -> np.ndarray:
    """m = sum over paths of lam_p times the path's indicator."""
    m = np.zeros(n)
    for i, p in enumerate(paths):
        if lam[i] > 0:
            m[p] += lam[i]
    return m


@dataclass
class TypeTrendReport:
    annuli: list[tuple[int, int]]
    estimates: list[VelEstimate]
    skipped: list[tuple[int, int]]
    cumulative_lower: list[float]
    fit: dict
    verdict: str

    def to_dict(self) -> dict:
        return {
            "annuli": [list(a) for a in self.annuli],
            "per_annulus": [e.to_dict() for e in self.estimates],
            "skipped": [list(a) for a in self.skipped],
            "cumulative_lower": self.cumulative_lower,
            "fit": {k: v for k, v in self.fit.items()},
            "verdict": self.verdict,
        }


def vel_type_trend(
    g: RotationGraph,
    root: int,
    radii: list[tuple[int, int]],
    layers: LayerDecomposition | None = None,
    opts: SolverOptions | None = None,
) -> TypeTrendReport:
    """Per-annulus extremal-length estimates and a growth-trend verdict.

    Each annulus (n_inner, n_outer) uses A = S(n_inner), B = S(n_outer) and
    support B(n_outer) - B(n_inner - 1); annuli touching the frontier are
    excluded and reported.
    """
    from .graph_core import bfs_layers

    layers = layers or bfs_layers(g, root)
    usable: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    for (ni, no) in radii:
        if ni < 0 or no <= ni:
            raise GraphError(f"bad annulus ({ni}, {no})")
        if no > layers.reliable_depth:
            skipped.append((ni, no))
        else:
            usable.append((ni, no))

    def solve_one(ann):
        ni, no = ann
        support = [
            v for v in range(g.n_vertices) if ni <= layers.dist[v] <= no
        ]
        A = set(layers.spheres[ni])
        B = set(layers.spheres[no])
        return solve_vel(g, A, B, opts=opts, support=support)

    estimates = [solve_one(a) for a in usable]

    cumulative = []
    acc = 0.0
    for est in estimates:
        acc += est.lower if math.isfinite(est.lower) else 0.0
        cumulative.append(acc)
    fit = classify_cumulative_sums(range(1, len(cumulative) + 1), cumulative)
    verdict = fit["verdict"]
    if verdict not in (PARABOLIC, HYPERBOLIC):
        verdict = INCONCLUSIVE
    return TypeTrendReport(
        annuli=usable,
        estimates=estimates,
        skipped=skipped,
        cumulative_lower=cumulative,
        fit=fit,
        verdict=verdict,
    )
