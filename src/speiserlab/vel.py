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
predictor-corrector), started from Mehrotra's point (*On the implementation
of a primal-dual interior point method*, SIAM J. Optim. 2, 1992): the
least-norm flow and the least-squares dual slack of its gradient, shifted
into the positive orthant and balanced.  Every variable has exactly one
inflow row and at most one outflow row, so the normal equations ``A D A^T``
are diagonal on their inflow block and on their outflow block.  Each solve
with them eliminates the inflow rows and factors one sparse LU of the Schur
complement on the outflow rows (a fifth of the rows of ``A D A^T`` on {3,8}
annuli), whose sparsity pattern is fixed once per solve.  The starting
point's ``A A^T`` orders that pattern by minimum degree, and every
iteration assembles its complement already permuted into the same order and
factors it as it stands (``sparse_lu.factor``, with SuperLU supernode
settings fixed there).  The returned bracket does not rest on trusting that
run:

* lower bound: the metric ``m = t``, kept as ``VelEstimate.metric`` (zero
  off the support), with its Dijkstra distance ``dist_m(A, B)^2 / area(m)``;
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
from scipy.sparse import csc_matrix, csr_matrix, eye
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import spsolve_triangular

from .errors import GraphError
from .graph_core import RotationGraph, bfs_layers
from .refinement import check_metric
from .sparse_lu import factor
from .trend import classify_cumulative_sums

REL_GAP = 1e-6
MAX_IPM_ITERATIONS = 100
# share of the distance to the boundary of the positive orthant that an
# interior-point step covers
STEP_FRACTION = 0.99


@dataclass
class VelEstimate:
    """A certified bracket ``lower <= VEL <= upper`` and the v-metric behind
    ``lower`` (zero off the support).  ``iterations`` holds ``outer``, the
    interior-point iterations, and ``n_constraints``, the arc variables of
    the flow QP (support arcs plus one source arc per A vertex)."""

    lower: float
    upper: float
    metric: np.ndarray
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
    g: RotationGraph, A: set[int], B: set[int], m: np.ndarray
) -> dict:
    """dist = min total vertex weight over A-B paths; area = sum m^2."""
    m = check_metric(g, m)
    if not A or not B or A & B:
        raise GraphError("A and B must be nonempty and disjoint")
    sub = _Subproblem(g, A, B)
    dist = float(sub.distances(m)[sub.B].min())
    area = sum((m * m).tolist())
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
            self.nodes = np.flatnonzero(_mask(g.n_vertices, support))
        self.n = n = len(self.nodes)
        local = np.full(g.n_vertices, -1)
        local[self.nodes] = np.arange(n)
        a_mask = _mask(g.n_vertices, A)[self.nodes]
        self.b_mask = _mask(g.n_vertices, B)[self.nodes]
        self.A, self.B = np.flatnonzero(a_mask), np.flatnonzero(self.b_mask)
        if not len(self.A) or not len(self.B):
            raise GraphError("A and B must meet the support")
        # dart d runs from its vertex to its twin's
        tail = local[g.dart_vertex]
        head = tail[np.arange(len(tail)) ^ 1]
        keep = (tail >= 0) & (head >= 0)
        keep[keep] = ~self.b_mask[tail[keep]] & ~a_mask[head[keep]]
        arcs = np.sort(tail[keep] * n + head[keep])
        arcs = arcs[np.diff(arcs, prepend=-1) > 0]
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


def _mask(size: int, ids) -> np.ndarray:
    """Boolean mask of the vertex ids in ``ids``, an array or any iterable."""
    mask = np.zeros(size, dtype=bool)
    if isinstance(ids, np.ndarray):
        mask[ids.astype(np.int64, copy=False)] = True
    else:
        mask[np.fromiter(ids, np.int64)] = True
    return mask


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
            metric=np.zeros(g.n_vertices),
            iterations={"note": "A and B are disconnected"},
            converged=True,
        )
    # every A-B path stays among the vertices that A reaches; dropping the
    # others gives the QP constraint matrix full row rank
    if not reached.all():
        sub = _Subproblem(g, A, B, support=sub.nodes[reached])
    n, k = sub.n, len(sub.tail) + len(sub.A)
    flow = _FlowSystem(sub)
    cons, cons_t = flow.cons, flow.cons.T
    rhs = np.zeros(cons.shape[0])
    rhs[-1] = 1.0
    hess = np.concatenate([np.zeros(k), np.full(n, 2.0)])
    # both bounds are widened by more than the rounding error of their sums,
    # so that a float bracket of an exactly solved instance cannot cross
    slack = 8 * n * sys.float_info.epsilon

    x, y, z = _mehrotra_start(flow, rhs, hess)
    for it in range(1, MAX_IPM_ITERATIONS + 1):
        r_p = cons @ x - rhs
        r_d = hess * x - cons_t @ y - z
        mu = x @ z / len(x)
        d = 1.0 / (hess + z / x)
        solve = None  # release the last factor before computing the next
        solve = flow.normal_solver(d)

        def newton(r_c):
            dy = solve(cons @ (d * (r_d + r_c / x)) - r_p)
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

    metric = np.zeros(g.n_vertices)
    metric[sub.nodes[t > 0]] = t[t > 0]
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


def _mehrotra_start(flow: _FlowSystem, rhs: np.ndarray, hess: np.ndarray):
    """Mehrotra's starting point (x, y, z) for the flow QP.

    The least-norm flow ``x = cons^T (cons cons^T)^-1 rhs`` and the
    least-squares dual of its gradient, ``y = (cons cons^T)^-1 cons H x``
    and ``z = H x - cons^T y``, each shifted by 1.5 times its most negative
    entry and then balanced so that the products ``x_i z_i`` are of one
    size.  Where the least-norm flow is already optimal (a path, a star)
    ``z`` is zero up to rounding, so its shift is floored at ``REL_GAP``
    times the largest gradient entry, which is positive because the flow
    leaves A.  The shifted ``z`` is then positive and the shifted ``x``
    nonnegative and nonzero, so the balanced start is strictly positive.
    ``cons cons^T`` is the first normal matrix factored, so it orders the
    Schur pattern for every iteration after it.
    """
    cons = flow.cons
    solve = flow.normal_solver(np.ones(cons.shape[1]))
    x = cons.T @ solve(rhs)
    grad = hess * x
    y = solve(cons @ grad)
    z = grad - cons.T @ y
    x += max(-1.5 * x.min(), 0.0)
    z += max(-1.5 * z.min(), REL_GAP * grad.max())
    gap = x @ z
    return x + 0.5 * gap / z.sum(), y, z + 0.5 * gap / x.sum()


class _FlowSystem:
    """Equality constraints of the flow QP and their normal equations.

    Columns: the support arcs, then one source arc per A vertex, then the
    throughputs t.  Rows: inflow(v) - t_v for every v (the n inflow rows),
    then t_v - outflow(v) for every v off B and the sum of the source arcs
    (the outflow rows).  Every column has exactly one inflow entry and at
    most one outflow entry, so ``cons @ diag(d) @ cons.T`` is diagonal on its
    inflow block (``delta``) and on its outflow block (``theta``).
    ``normal_solver`` eliminates the inflow rows and factors the Schur
    complement ``theta - E^T delta^-1 E`` on the outflow rows, where the
    coupling ``E`` has one entry per column that has an outflow row.
    """

    def __init__(self, sub: _Subproblem):
        n, n_arcs, n_src = sub.n, len(sub.tail), len(sub.A)
        off = np.flatnonzero(~sub.b_mask)
        self.n, self.n_out = n, len(off) + 1
        out_row = np.full(n, -1)
        out_row[off] = np.arange(len(off))
        # per column: its inflow row and coefficient, its outflow row (-1:
        # none) and coefficient
        self.in_row = np.concatenate([sub.head, sub.A, np.arange(n)])
        in_coef = np.repeat([1.0, 1.0, -1.0], [n_arcs, n_src, n])
        col_out = np.concatenate(
            [out_row[sub.tail], np.full(n_src, len(off)), out_row]
        )
        out_coef = np.repeat([-1.0, 1.0, 1.0], [n_arcs, n_src, n])
        has = col_out >= 0
        cols = np.arange(len(col_out))
        self.cons = csr_matrix(
            (
                np.concatenate([in_coef, out_coef[has]]),
                (
                    np.concatenate([self.in_row, n + col_out[has]]),
                    np.concatenate([cols, cols[has]]),
                ),
            ),
            shape=(n + self.n_out, len(cols)),
        )
        # the entries of E: column, inflow row, outflow row and sign
        self.e_col = cols[has]
        self.e_in = self.in_row[has]
        self.e_out = col_out[has]
        self.e_sign = (in_coef * out_coef)[has]
        # E^T delta^-1 E sums e1 * e2 / delta_v over the ordered pairs of
        # entries that share the inflow row v; sort the entries by v
        order = np.argsort(self.e_in, kind="stable")
        row = self.e_in[order]
        size = np.bincount(row, minlength=n)[row]
        first = np.repeat(order, size)
        offset = np.arange(len(first)) - np.repeat(np.cumsum(size) - size, size)
        second = order[np.repeat(np.searchsorted(row, row), size) + offset]
        self.pair_first, self.pair_second = first, second
        # one CSC pattern for every iteration: the pairs plus the diagonal
        m = self.n_out
        keys = np.concatenate(
            [self.e_out[second] * m + self.e_out[first], np.arange(m) * (m + 1)]
        )
        slots = self._set_pattern(keys)
        self.pair_slot, self.diag_slot = slots[: len(first)], slots[len(first) :]
        # the fill-reducing order of the pattern, known after the first factor
        self.order = None

    def _set_pattern(self, keys: np.ndarray) -> np.ndarray:
        """Make the CSC pattern the entries ``column * n_out + row`` in
        ``keys``; return the slot of each key."""
        m = self.n_out
        pattern, slots = np.unique(keys, return_inverse=True)
        self.indices = (pattern % m).astype(np.int32)
        self.indptr = np.searchsorted(pattern, np.arange(m + 1) * m).astype(np.int32)
        return slots

    def normal_solver(self, d: np.ndarray):
        """Solve ``cons @ diag(d) @ cons.T @ dy = r`` for positive ``d``.

        One sparse LU of the Schur complement on the outflow rows; the
        inflow part of ``dy`` follows by a diagonal back-substitution.  The
        first call factors it in a minimum-degree order of its pattern and
        moves the pattern into that elimination order, so that every later
        call assembles the complement already permuted and factors it as it
        stands (``sparse_lu.factor``, with SuperLU supernode settings fixed
        for these systems).
        """
        n, m = self.n, self.n_out
        delta = np.bincount(self.in_row, d, n)
        e_val = self.e_sign * d[self.e_col]
        e_scaled = e_val / delta[self.e_in]
        data = -np.bincount(
            self.pair_slot,
            e_scaled[self.pair_first] * e_val[self.pair_second],
            len(self.indices),
        )
        data[self.diag_slot] += np.bincount(self.e_out, d[self.e_col], m)
        order = self.order
        lu, self.order = factor(
            csc_matrix((data, self.indices, self.indptr), shape=(m, m)), order
        )
        if order is None:
            self._permute(self.order)

        def solve(r: np.ndarray) -> np.ndarray:
            h = r[:n] / delta
            b = r[n:] - np.bincount(self.e_out, e_val * h[self.e_in], m)
            if order is None:
                dy_out = lu.solve(b)
            else:
                dy_out = np.empty(m)
                dy_out[order] = lu.solve(b[order])
            dy_in = h - np.bincount(self.e_in, e_scaled * dy_out[self.e_out], n)
            return np.concatenate([dy_in, dy_out])

        return solve

    def _permute(self, order: np.ndarray) -> None:
        """Move the pattern into ``order``: row and column ``order[i]`` of the
        Schur complement become row and column ``i``."""
        m = self.n_out
        rank = np.empty(m, dtype=np.int64)
        rank[order] = np.arange(m)
        col = np.repeat(np.arange(m), np.diff(self.indptr))
        moved = self._set_pattern(rank[col] * m + rank[self.indices])
        self.pair_slot, self.diag_slot = moved[self.pair_slot], moved[self.diag_slot]


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


def check_annuli(radii: list[tuple[int, int]]) -> None:
    """Reject annuli (n_inner, n_outer) unless 0 <= n_inner < n_outer."""
    bad = [(ni, no) for ni, no in radii if not 0 <= ni < no]
    if bad:
        raise GraphError(f"bad annulus {bad[0]}")


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
    check_annuli(radii)
    layers = bfs_layers(g, root)
    dist = layers.dist
    usable: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    for (ni, no) in radii:
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
    return TypeTrendReport(
        annuli=usable,
        estimates=estimates,
        skipped=skipped,
        cumulative_lower=cumulative,
        fit=fit,
        verdict=fit["verdict"],
    )
