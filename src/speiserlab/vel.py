"""Numerical vertex extremal length on finite annuli.

For vertex sets A, B in a finite graph, the vertex extremal length is
``sup_m dist_m(A, B)^2 / area(m)`` where a path's length is the sum of the
weights of every vertex it visits (endpoints included) and the area is the
sum of squared weights.  By blocking duality (Albin, Clemens, Fernando and
Poggi-Corradini, 2019) it also equals the minimum of ``sum_v t_v^2`` over
unit A-B flows, where ``t_v`` is the flow through vertex ``v``.  That is one
convex quadratic program on the arc flows:

* arcs ``u -> w`` join support vertices, parallel arcs collapsed, with no
  arc out of B and none into A, plus one source arc into each A vertex;
* a throughput variable ``t_v`` per vertex, with ``inflow(v) = t_v`` for
  every ``v``, ``t_v = outflow(v)`` for every ``v`` off B, and source arcs
  summing to 1; every variable is nonnegative.

``solve_vel`` solves it by a primal-dual interior-point method (Mehrotra
predictor-corrector) whose normal equations ``A D A^T`` go through one sparse
LU per iteration.  The returned bracket does not rest on trusting that run:

* lower bound: the metric ``m = t`` with its Dijkstra distance,
  ``dist_m(A, B)^2 / area(m)``;
* upper bound: the flow is pushed down the shortest-path DAG of ``m`` (arcs
  with ``d_w > d_u`` only), each vertex splitting its flow in proportion to
  the solver's arc flows.  This is a random A-B path, stopped where it meets
  no DAG arc; conditioned on reaching B it is a probability measure on A-B
  paths, and ``sum_v P(v on path)^2`` bounds the extremal length above by
  Cauchy-Schwarz.  With ``phi`` the pushed throughput and ``reach`` the mass
  that arrives at B, the bound is ``sum phi^2 / reach^2``.

An estimate is ``converged`` when its certified relative gap is at most
``REL_GAP``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, diags, eye
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve_triangular, splu

from .errors import GraphError
from .graph_core import RotationGraph, bfs_layers
from .refinement import VMetric
from .trend import (
    HYPERBOLIC,
    INCONCLUSIVE,
    PARABOLIC,
    classify_cumulative_sums,
)

REL_GAP = 1e-6
MAX_IPM_ITERATIONS = 100
# share of the distance to the boundary of the positive orthant that an
# interior-point step covers
STEP_FRACTION = 0.99


@dataclass
class VelEstimate:
    """A certified bracket ``lower <= VEL <= upper`` and the metric behind
    ``lower``.  ``iterations`` holds ``outer``, the interior-point
    iterations, and ``n_constraints``, the arc variables of the flow QP
    (support arcs plus one source arc per A vertex)."""

    lower: float
    upper: float
    metric: VMetric
    iterations: dict = field(default_factory=dict)
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def metric_objective(
    g: RotationGraph, A: set[int], B: set[int], m: VMetric
) -> dict:
    """dist = min total vertex weight over A-B paths; area = sum m^2."""
    if not A or not B or A & B:
        raise GraphError("A and B must be nonempty and disjoint")
    sub = _Subproblem(g, A, B)
    weights = np.zeros(g.n_vertices)
    weights[list(m.weights)] = list(m.weights.values())
    dist = float(sub.distances(weights)[sub.B].min())
    area = m.area()
    if area == 0:
        ratio = 0.0
    elif not math.isfinite(dist):
        ratio = math.inf
    else:
        ratio = dist * dist / area
    return {"dist": dist, "area": area, "ratio": ratio}


class _Subproblem:
    """The arcs of a support: ``u -> w`` inside it, none into A or out of B.

    Parallel arcs collapse to one, so an arc into ``w`` costs ``m[w]`` once.
    Local vertex ``i`` is ``nodes[i]``; ``A`` and ``B`` hold local indices.
    """

    def __init__(self, g: RotationGraph, A, B, support=None):
        if support is None:
            self.nodes = np.arange(g.n_vertices)
        else:
            self.nodes = np.unique(np.fromiter(support, np.int64))
        self.n = n = len(self.nodes)
        local = np.full(g.n_vertices, -1)
        local[self.nodes] = np.arange(n)
        self.A = np.unique(local[np.fromiter(A, np.int64)])
        self.B = np.unique(local[np.fromiter(B, np.int64)])
        self.A, self.B = self.A[self.A >= 0], self.B[self.B >= 0]
        if not len(self.A) or not len(self.B):
            raise GraphError("A and B must meet the support")
        self.b_mask = np.zeros(n, dtype=bool)
        self.b_mask[self.B] = True
        a_mask = np.zeros(n, dtype=bool)
        a_mask[self.A] = True
        # dart d runs from its vertex to its twin's
        tail = local[g.dart_vertex]
        head = tail[np.arange(len(tail)) ^ 1]
        keep = (tail >= 0) & (head >= 0)
        keep[keep] = ~self.b_mask[tail[keep]] & ~a_mask[head[keep]]
        arcs = np.unique(tail[keep] * n + head[keep])
        self.tail, self.head = arcs // n, arcs % n
        # the Dijkstra graph: row n is a virtual source with an arc into each A
        self._graph = csr_matrix(
            (
                np.ones(len(arcs) + len(self.A)),
                (
                    np.concatenate([self.tail, np.full(len(self.A), n)]),
                    np.concatenate([self.head, self.A]),
                ),
            ),
            shape=(n + 1, n + 1),
        )

    def distances(self, m: np.ndarray) -> np.ndarray:
        """Least vertex-weight of a path from A to each vertex (A included)."""
        self._graph.data = m[self._graph.indices].astype(float)
        return dijkstra(self._graph, directed=True, indices=self.n)[: self.n]


def solve_vel(
    g: RotationGraph, A: set[int], B: set[int], support=None
) -> VelEstimate:
    """Bracket the vertex extremal length between A and B.

    ``support`` optionally restricts both the paths and the metric to a vertex
    subset (the annulus).  Both bounds are certificates computed from the
    solver's last iterate, independent of its convergence: ``lower`` from the
    stored metric, ``upper`` from the flow pushed down its shortest-path DAG.
    """
    A, B = set(A), set(B)
    if not A or not B or A & B:
        raise GraphError("A and B must be nonempty and disjoint")
    sub = _Subproblem(g, A, B, support=support)
    reached = np.isfinite(sub.distances(np.ones(sub.n)))
    if not reached[sub.B].any():
        return VelEstimate(
            lower=math.inf,
            upper=math.inf,
            metric=VMetric({}),
            iterations={"note": "A and B are disconnected"},
            converged=True,
        )
    # every A-B path stays among the vertices that A reaches; dropping the
    # others gives the QP constraint matrix full row rank
    sub = _Subproblem(g, A, B, support=sub.nodes[reached])
    n, k = sub.n, len(sub.tail) + len(sub.A)
    cons = _flow_constraints(sub)
    cons_t = cons.T.tocsr()
    rhs = np.zeros(cons.shape[0])
    rhs[-1] = 1.0
    hess = np.concatenate([np.zeros(k), np.full(n, 2.0)])
    # both bounds are widened by more than the rounding error of their sums,
    # so that a float bracket of an exactly solved instance cannot cross
    slack = 8 * n * sys.float_info.epsilon

    x, z, y = np.ones(k + n), np.ones(k + n), np.zeros(cons.shape[0])
    for it in range(1, MAX_IPM_ITERATIONS + 1):
        r_p = cons @ x - rhs
        r_d = hess * x - cons_t @ y - z
        mu = x @ z / len(x)
        d = 1.0 / (hess + z / x)
        lu = None  # release the last factor before computing the next
        lu = splu((cons @ diags(d) @ cons_t).tocsc(), permc_spec="MMD_AT_PLUS_A")

        def newton(r_c):
            dy = lu.solve(cons @ (d * (r_d + r_c / x)) - r_p)
            dx = d * (cons_t @ dy - r_d - r_c / x)
            return dx, dy, -(r_c + z * dx) / x

        dx, dy, dz = newton(x * z)
        alpha = min(_max_step(x, dx), _max_step(z, dz))
        sigma = ((x + alpha * dx) @ (z + alpha * dz) / len(x) / mu) ** 3
        dx, dy, dz = newton(x * z + dx * dz - sigma * mu)
        alpha = min(1.0, STEP_FRACTION * min(_max_step(x, dx), _max_step(z, dz)))
        x, y, z = x + alpha * dx, y + alpha * dy, z + alpha * dz
        t = x[k:]
        if x @ z > REL_GAP * (t @ t) and it < MAX_IPM_ITERATIONS:
            continue
        dist = sub.distances(t)
        lower = float(dist[sub.B].min()) ** 2 / float(t @ t) * (1 - slack)
        upper = _flow_upper(sub, dist, x[: len(sub.tail)], x[len(sub.tail) : k])
        upper *= 1 + slack
        if upper - lower <= REL_GAP * upper:
            break

    metric = VMetric(dict(zip(sub.nodes[t > 0].tolist(), t[t > 0].tolist())))
    est = VelEstimate(
        lower=lower,
        upper=upper,
        metric=metric,
        iterations={"outer": it, "n_constraints": k},
        converged=upper - lower <= REL_GAP * upper,
    )
    if est.lower > est.upper + 1e-9:
        raise GraphError("certified bounds crossed; solver bug")
    return est


def _flow_constraints(sub: _Subproblem) -> csr_matrix:
    """Equality constraints of the flow QP, one column per variable.

    Columns: the support arcs, then one source arc per A vertex, then the
    throughputs t.  Rows: inflow(v) - t_v for every v, t_v - outflow(v) for
    every v off B, and the sum of the source arcs.
    """
    n, n_arcs, n_src = sub.n, len(sub.tail), len(sub.A)
    k = n_arcs + n_src
    off = np.flatnonzero(~sub.b_mask)
    out_row = np.full(n, -1)
    out_row[off] = n + np.arange(len(off))
    n_rows = n + len(off) + 1
    # (row, column, value) blocks: inflow of every arc, outflow of the
    # support arcs, the source sum, and the two throughput entries
    blocks = [
        (np.concatenate([sub.head, sub.A]), np.arange(k), 1.0),
        (out_row[sub.tail], np.arange(n_arcs), -1.0),
        (np.full(n_src, n_rows - 1), np.arange(n_arcs, k), 1.0),
        (np.arange(n), k + np.arange(n), -1.0),
        (out_row[off], k + off, 1.0),
    ]
    rows = np.concatenate([r for r, _, _ in blocks])
    cols = np.concatenate([c for _, c, _ in blocks])
    vals = np.concatenate([np.full(len(r), v) for r, _, v in blocks])
    return csr_matrix((vals, (rows, cols)), shape=(n_rows, k + n))


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in [0, 1] that keeps ``v + step * dv`` nonnegative."""
    neg = dv < 0
    return float(min(1.0, (-v[neg] / dv[neg]).min(initial=math.inf)))


def _flow_upper(
    sub: _Subproblem, dist: np.ndarray, flow: np.ndarray, source: np.ndarray
) -> float:
    """Certified upper bound from arc flows pushed down the DAG of ``dist``.

    Only arcs with ``dist[w] > dist[u]`` are kept, so the result is acyclic
    whatever the flows.  Each vertex splits the flow it receives in
    proportion to ``flow`` on its kept arcs, and ``source`` feeds A.  The
    pushed throughput ``phi`` is an expected visit count of a random path;
    conditioned on the mass ``reach`` that arrives at B it bounds the
    extremal length by ``sum phi^2 / reach^2``.
    """
    n = sub.n
    down = dist[sub.head] > dist[sub.tail]
    tail, head, w = sub.tail[down], sub.head[down], flow[down]
    out = np.bincount(tail, w, n)
    # in increasing-distance order the push is one lower-triangular solve
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(dist, kind="stable")] = np.arange(n)
    push = csr_matrix((-w / out[tail], (rank[head], rank[tail])), shape=(n, n))
    feed = np.zeros(n)
    feed[rank[sub.A]] = source
    phi = spsolve_triangular((push + eye(n)).tocsr(), feed, lower=True)[rank]
    reach = phi[sub.B].sum()
    return float(phi @ phi / (reach * reach))


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
) -> TypeTrendReport:
    """Per-annulus extremal-length estimates and a growth-trend verdict.

    Each annulus (n_inner, n_outer) uses A = S(n_inner), B = S(n_outer) and
    support B(n_outer) - B(n_inner - 1), all around ``root``; annuli touching
    the frontier are excluded and reported.
    """
    layers = bfs_layers(g, root)
    dist = layers.dist
    usable: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    for (ni, no) in radii:
        if ni < 0 or no <= ni:
            raise GraphError(f"bad annulus ({ni}, {no})")
        if no > layers.reliable_depth:
            skipped.append((ni, no))
        else:
            usable.append((ni, no))

    estimates = [
        solve_vel(
            g,
            np.flatnonzero(dist == ni),
            np.flatnonzero(dist == no),
            support=np.flatnonzero((dist >= ni) & (dist <= no)),
        )
        for ni, no in usable
    ]

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
