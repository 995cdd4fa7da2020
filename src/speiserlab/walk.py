"""Electrical-network recurrence tests.

Effective resistance from a root to a grounded combinatorial sphere, the
Nash-Williams cut-sum lower bound, and the full pipeline: glue square-grid
cylinders into every face of a Speiser graph and test the result for
recurrence.  Every edge (each parallel copy separately) is a unit resistor,
matching simple random walk on the multigraph.  A network is plain edge
arrays with the distances of its nodes, and one call solves it and counts
its cut sizes, so every resistance curve reads the cut-sum bound off the
network it solved.

For the pipeline the extended graph's ball is assembled implicitly from the
face walks: a grid node over walk position i at height m sits at distance
D_i + m from the root, so the ball of radius n only ever touches columns of
height at most n and stays desk-sized even when the faces are huge.  Its
edges come in three blocks: base, vertical and ring edges.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import accumulate

import numpy as np
from scipy.sparse import csc_matrix

from .errors import FrontierError, GraphError
from .graph_core import RotationGraph, bfs_layers, classify, cut_counts, trace_faces
from .sparse_lu import factor
from .trend import classify_resistance_curve, first_converged_n


def _edge_arrays(g: RotationGraph) -> tuple[np.ndarray, np.ndarray]:
    return g.dart_vertex[0::2], g.dart_vertex[1::2]


def _ball_resistances(
    n_nodes: int,
    u: np.ndarray,
    v: np.ndarray,
    dist: np.ndarray,
    root: int,
    n_list: Sequence[int],
) -> ResistanceCurve:
    """Resistances and solve residuals from root to the short-circuited S(n),
    and the cut sizes |E(k)|, k < max n, counted by ``cut_counts`` on the
    edges inside B(max n) that were solved.

    Every edge (u, v) is a unit resistor; ``dist`` is the distance from the
    root, so it changes by at most one along an edge.  Radius n solves for
    the potentials of the nodes at distances 0..n-1 that an edge inside
    B(max n) touches, less the root: none of them has an edge leaving B(n),
    so their Laplacian is a principal submatrix of the one of the largest
    radius, which is assembled once.  The radii are solved from the largest
    down, each by one sparse LU (``sparse_lu.factor``, which also fixes
    SuperLU's supernode settings for these systems).  The largest is
    factored in a minimum-degree order of its symmetric pattern, and its
    Laplacian is then permuted once into that elimination order; every
    smaller radius cuts its minor from the next larger one and factors it in
    the restricted order.  A repeated radius is solved once, and the results
    follow ``n_list``.  The root current is summed over the root's edges in
    their given order, first where the root is u.
    """
    radii = sorted(set(n_list), reverse=True)
    n_max = radii[0] if radii else 0
    inside = dist <= n_max
    keep = inside[u] & inside[v]
    u, v = u[keep], v[keep]
    deg = np.bincount(u, minlength=n_nodes) + np.bincount(v, minlength=n_nodes)
    # the far ends of the root's edges, and per node its edges to the root
    far = [v[u == root], u[v == root]]
    to_root = np.bincount(np.concatenate(far), minlength=n_nodes).astype(float)
    free = (dist < n_max) & (deg > 0)
    free[root] = False
    nodes = np.flatnonzero(free)
    local = np.full(n_nodes, -1)
    local[nodes] = np.arange(len(nodes))
    both = free[u] & free[v]
    a, b, diag = local[u[both]], local[v[both]], np.arange(len(nodes))
    ones = np.ones(len(a))
    lap = csc_matrix(
        (
            np.concatenate([-ones, -ones, deg[nodes].astype(float)]),
            (np.concatenate([a, b, diag]), np.concatenate([b, a, diag])),
        ),
        shape=(len(nodes), len(nodes)),
    )
    solved, order = {}, None
    for n in radii:
        if n < n_max:
            inner = dist[nodes] < n
            nodes, lap = nodes[inner], lap[inner][:, inner]
        pot = np.zeros(n_nodes)
        pot[root] = 1.0
        resid = 0.0
        if len(nodes):
            rhs = to_root[nodes]
            first = order is None
            lu, order = factor(lap, order)
            x = lu.solve(rhs)
            del lu  # release this factor before the next radius computes its own
            scale = max(np.linalg.norm(rhs), 1e-300)
            resid = float(np.linalg.norm(lap @ x - rhs) / scale)
            if resid > 1e-10:
                raise GraphError(f"linear solve residual {resid} above contract")
            pot[nodes] = x
            if first:
                nodes, lap = nodes[order], lap[order][:, order]
        current = sum(float(np.sum(1.0 - pot[ends])) for ends in far)
        solved[n] = (1.0 / current, resid)
    return ResistanceCurve(
        list(n_list),
        [solved[n][0] for n in n_list],
        [solved[n][1] for n in n_list],
        cut_counts(dist[u], dist[v], n_max).tolist(),
    )


@dataclass
class ResistanceCurve:
    """R(n) to the short-circuited spheres S(n), the residuals of the solves
    and the cut sizes |E(k)|, k < max n, all on the network that was solved."""

    radii: list[int]
    resistance: list[float]
    residuals: list[float]
    cut_sizes: list[int]

    def to_dict(self) -> dict:
        return {"radii": self.radii, "resistance": self.resistance}


def check_radii(n_list: Sequence[int]) -> None:
    """Reject radii below 1: S(0) is the root itself."""
    bad = [n for n in n_list if n < 1]
    if bad:
        raise GraphError(f"n must be >= 1, got {bad}")


def resistance_curve(g: RotationGraph, root: int, n_list: list[int]) -> ResistanceCurve:
    """Resistances from ``root`` to the short-circuited spheres S(n) around it."""
    check_radii(n_list)
    layers = bfs_layers(g, root)
    for n in n_list:
        if n <= layers.reliable_depth:
            continue
        if not g.frontier:
            raise FrontierError(
                f"S({n}) is empty: radius {n} lies past the depth {layers.depth} "
                "of a graph with no frontier"
            )
        raise FrontierError(
            f"B({n}) touches the frontier (reliable depth {layers.reliable_depth})"
        )
    return _ball_resistances(g.n_vertices, *_edge_arrays(g), layers.dist, root, n_list)


def nash_williams_sum(cut_sizes: Sequence[int]) -> list[float]:
    """Partial sums P(n) = sum_{k < n} 1 / |E(k)| of the cut sizes |E(k)|."""
    cut_sizes = list(cut_sizes)
    if 0 in cut_sizes:
        raise GraphError(f"empty cut set at radius {cut_sizes.index(0)}")
    return list(accumulate(1.0 / c for c in cut_sizes))


# -- implicit ball of the extended graph -----------------------------------


def _upsilon_ball(g: RotationGraph, root: int, n_max: int, grid_depth: int):
    """Nodes and edges of B(n_max) around ``root`` in the extension of ``g``
    with grids of depth ``grid_depth``.

    Returns (n_nodes, edges_u, edges_v, dist): base vertices keep their ids,
    and the grid nodes are appended column by column, one column over every
    face walk entry in entry order, each numbered bottom-up.  Exact for
    n <= the base reliable depth.  The edges come in three blocks: the base
    edges inside the ball in edge order, the vertical edges in node order
    (each node joined to the one below it, a bottom node to its column's
    base vertex), and the ring edges in entry order, joining equal heights
    of consecutive columns of a face.
    """
    faces = trace_faces(g)
    dist_base = bfs_layers(g, root).dist
    n = g.n_vertices
    inside = dist_base <= n_max
    a, b = _edge_arrays(g)
    base = inside[a] & inside[b]

    # column over walk entry p: heights 1..h[p], nodes n + col0[p] + (0..h-1)
    D = dist_base[faces.vertices]
    h = np.maximum(
        np.where(inside[faces.vertices], np.minimum(grid_depth, n_max - D), 0), 0
    )
    col0 = np.cumsum(h) - h
    fid = faces.face_index()
    start = faces.offsets[fid]
    nxt = np.arange(len(h)) + 1
    last = nxt == faces.offsets[fid + 1]
    nxt[last] = start[last]
    # every face walk has two darts or more: RotationGraph has no self-loops
    top = np.minimum(h, h[nxt])

    # vertical edges in node order: each node hangs from the one below it,
    # the bottom node of a column from the column's base vertex
    n_new = int(h.sum())
    column = np.repeat(np.arange(len(h)), h)
    below = n - 1 + np.arange(n_new)
    below[col0[h > 0]] = faces.vertices[h > 0]
    height = np.arange(n_new) - col0[column] + 1
    # ring edges: height m of entry p to height m of the next entry
    ring = np.repeat(np.arange(len(h)), top)
    level = np.arange(len(ring)) - (np.cumsum(top) - top)[ring]
    return (
        n + n_new,
        np.concatenate([a[base], below, n + col0[ring] + level]),
        np.concatenate([b[base], n + np.arange(n_new), n + col0[nxt[ring]] + level]),
        np.concatenate([dist_base, D[column] + height]),
    )


def upsilon_resistance_curve(
    g: RotationGraph,
    root: int,
    n_list: list[int],
    grid_depth: int,
) -> ResistanceCurve:
    """Effective resistance root -> S(n) inside the extension of ``g`` with
    grids of depth ``grid_depth``.

    The grids end ``grid_depth`` above the base, so a finite extension has
    empty spheres past its far end, which no current reaches: a radius whose
    sphere is empty raises ``FrontierError`` before anything is factored.
    """
    check_radii(n_list)
    if grid_depth < 0:
        raise GraphError(f"grid_depth must be >= 0, got {grid_depth}")
    layers = bfs_layers(g, root)
    n_max = max(n_list, default=0)
    if g.frontier and n_max > layers.reliable_depth:
        raise FrontierError(
            f"n_max {n_max} exceeds base reliable depth {layers.reliable_depth}"
        )
    n_nodes, u, v, dist = _upsilon_ball(g, root, n_max, grid_depth)
    sizes = np.bincount(dist[dist <= n_max], minlength=n_max + 1)
    empty = [n for n in n_list if sizes[n] == 0]
    if empty:
        raise FrontierError(
            f"S({empty[0]}) is empty: radius {empty[0]} lies past the end of "
            f"the extension with grids of depth {grid_depth}"
        )
    return _ball_resistances(n_nodes, u, v, dist, root, n_list)


@dataclass
class DoyleReport:
    flags: list[str]
    radii: list[int]
    resistance: list[float]
    nash_williams: list[float]
    cut_sizes: list[int]
    fit: dict
    first_converged: int | None
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


def check_doyle_depth(n_max: int, grid_depth: int) -> None:
    """Reject Doyle radii past the grid depth: the extension ends there, so
    resistances beyond it measure the truncation rather than the graph.  An
    ``n_max`` below 1 names no radius at all."""
    if n_max < 1:
        raise FrontierError(f"Doyle radius n_max = {n_max} must be >= 1")
    if n_max > grid_depth:
        raise FrontierError(
            f"Doyle radius n_max = {n_max} exceeds the grid depth {grid_depth}: "
            "radii past the grid depth measure its truncation"
        )


def doyle_test(
    speiser_graph: RotationGraph,
    grid_depth: int,
    root: int,
    n_max: int,
) -> DoyleReport:
    """Recurrence test of the extended graph built over ``speiser_graph``.

    Emits a flag when the input is not a homogeneous bipartite (Speiser-type)
    graph but still runs the pipeline, which is useful for controls.
    """
    flags = []
    cls = classify(speiser_graph)
    if not cls.is_bipartite:
        flags.append("input is not bipartite: not a Speiser graph (control run)")
    if cls.homogeneous_degree is None:
        flags.append("input is not degree-homogeneous")
    layers = bfs_layers(speiser_graph, root)
    n_eff = min(n_max, layers.reliable_depth) if speiser_graph.frontier else n_max
    if n_eff < n_max:
        flags.append(f"n_max trimmed to reliable depth {n_eff}")
    if n_eff < 1:
        raise FrontierError("no reliable radius at all")
    radii = list(range(1, n_eff + 1))
    curve = upsilon_resistance_curve(speiser_graph, root, radii, grid_depth=grid_depth)
    nw = nash_williams_sum(curve.cut_sizes)
    for n, r in zip(radii, curve.resistance):
        if r < nw[n - 1] - 1e-9:
            flags.append(f"cut-sum lower bound violated at n={n}: {r} < {nw[n-1]}")
    fit = {"verdict": "inconclusive", "reason": "insufficient data"}
    if len(radii) >= 3:
        fit = classify_resistance_curve(radii, curve.resistance)
    return DoyleReport(
        flags=flags,
        radii=radii,
        resistance=curve.resistance,
        nash_williams=nw,
        cut_sizes=curve.cut_sizes,
        fit=fit,
        first_converged=first_converged_n(radii, curve.resistance),
        verdict=fit["verdict"],
    )
