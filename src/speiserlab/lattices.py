"""Generators for the stock graphs used as controls and building blocks.

The main workhorse is the ring-by-ring generator for the triangulations
``{3,q}`` (every face a triangle, every interior vertex of degree ``q``);
``q = 6`` gives the flat hexagonal lattice and ``q >= 7`` the hyperbolic
triangulations.  Their duals supply the ``{q,3}`` tilings.

A stock graph is made in one of two ways.  Most write their darts and pass
them to the ``RotationGraph`` constructor; an edge's first slot in vertex
order is its dart ``2e``, so its dart ``2e`` sits at its end of lower id.
The polyhedra and grid patches list their faces as vertex cycles and pass
them to ``from_walks``, which numbers vertices and edges by first
appearance.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError
from .graph_core import RotationGraph, _first_at, _flatten


def path_graph(n_edges: int) -> RotationGraph:
    """Path with ``n_edges`` edges; vertex 0 is one end."""
    if n_edges < 1:
        raise GraphError("path needs at least one edge")
    # vertex v holds darts 2v - 1 and 2v; the ends hold the first and last dart
    return RotationGraph(
        np.arange(2 * n_edges), np.r_[0, np.arange(1, 2 * n_edges, 2), 2 * n_edges]
    )


def cycle_graph(n: int) -> RotationGraph:
    """Cycle with ``n >= 2`` vertices (n = 2 gives a doubled edge)."""
    if n < 2:
        raise GraphError("cycle needs at least 2 vertices")
    # vertex v holds darts 2v - 1 and 2v, except that vertex 0 starts with
    # dart 2n - 2 and vertex n - 1 ends with dart 2n - 1
    darts = np.r_[2 * n - 2, np.arange(2 * n - 2), 2 * n - 1]
    return RotationGraph(darts, np.arange(0, 2 * n + 1, 2))


def regular_tree(degree: int, depth: int) -> RotationGraph:
    """Rooted tree, all non-leaf vertices of the given degree, leaves at ``depth``."""
    if degree < 2 or depth < 1:
        raise GraphError("need degree >= 2 and depth >= 1")
    rotations: list[list[int]] = [[]]
    level = [0]
    for d in range(depth):
        nxt = []
        for v in level:
            n_child = degree if d == 0 else degree - 1
            for _ in range(n_child):
                # edge e joins v to its child w, whose id is higher
                w = len(rotations)
                e = w - 1
                rotations.append([2 * e + 1])
                rotations[v].append(2 * e)
                nxt.append(w)
        level = nxt
    return RotationGraph(*_flatten(rotations), frontier=level)


def octahedron() -> RotationGraph:
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    return _from_vertex_cycles(faces)


def cube() -> RotationGraph:
    faces = [
        (0, 3, 2, 1), (4, 5, 6, 7),
        (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ]
    return _from_vertex_cycles(faces)


def grid_patch(cols: int, rows: int) -> RotationGraph:
    """Rectangular grid patch with ``cols x rows`` vertices."""
    if cols < 2 or rows < 2:
        raise GraphError("grid needs at least 2x2 vertices")

    def vid(i: int, j: int) -> int:
        return j * cols + i

    faces = []
    for j in range(rows - 1):
        for i in range(cols - 1):
            faces.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    # the outer walk from vertex 0: up, along the top, down, back along the bottom
    outer = [vid(0, j) for j in range(rows)]
    outer += [vid(i, rows - 1) for i in range(1, cols)]
    outer += [vid(cols - 1, j) for j in range(rows - 2, -1, -1)]
    outer += [vid(i, 0) for i in range(cols - 2, 0, -1)]
    return _from_vertex_cycles(faces + [tuple(outer)])


def square_ball(radius: int) -> RotationGraph:
    """Ball of the square lattice: all vertices with |x| + |y| <= radius.

    Explicit counterclockwise rotations (E, N, W, S); the rim at distance
    ``radius`` is the frontier, so layers from the center are reliable up to
    ``radius``.
    """
    if radius < 1:
        raise GraphError("radius must be >= 1")
    coords = sorted(
        (
            (x, y)
            for y in range(-radius, radius + 1)
            for x in range(-radius, radius + 1)
            if abs(x) + abs(y) <= radius
        ),
        key=lambda c: (abs(c[0]) + abs(c[1]), c),
    )  # vertex 0 is the center
    vid = {c: i for i, c in enumerate(coords)}
    eid: dict[tuple, int] = {}
    for c in coords:
        x, y = c
        for other in ((x + 1, y), (x, y + 1)):
            if other in vid:
                eid[(c, other)] = len(eid)

    rotations = []
    for c in coords:
        x, y = c
        rot = []
        for other in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            if other in vid:
                e = eid.get((c, other), eid.get((other, c)))
                rot.append(2 * e + (vid[c] > vid[other]))
        rotations.append(rot)
    frontier = [vid[c] for c in coords if abs(c[0]) + abs(c[1]) == radius]
    return RotationGraph(*_flatten(rotations), frontier=frontier)


def triangular_ball(q: int, depth: int) -> RotationGraph:
    """Ball of radius ``depth`` in the triangulation {3,q}, q >= 6.

    Built ring by ring; ring ``k`` holds exactly the vertices at combinatorial
    distance ``k`` from vertex 0, and the outermost ring is the frontier.
    Rotation convention per ring vertex: [next-on-ring, down-neighbors
    (reversed), prev-on-ring, up-neighbors (forward)], counterclockwise.

    A ring vertex with ``down`` neighbors on the ring below has
    ``q - 2 - down`` on the ring above, which with q >= 6 is at least 2.
    Each vertex's up-neighbors form an arc of the next ring, and consecutive
    arcs share their end vertex, so ring sizes, vertex ids and edge ids all
    follow from the down counts.  Edge ids are allocated ring by ring: the
    next ring's own edges, then the up edges in ring order.
    """
    if q < 6:
        raise GraphError("triangular_ball needs q >= 6")
    if depth < 1:
        raise GraphError("depth must be >= 1")

    # the center's rotation: spokes 0..q-1 into ring 1, whose edges follow
    slots, degrees = [np.arange(q)], [np.array([q])]
    ring_edges = q + np.arange(q)  # ring_edges[i] joins ring[i] and ring[i + 1]
    downs, n_down = np.arange(q), np.ones(q, dtype=np.int64)
    n_edges = 2 * q
    for k in range(1, depth + 1):
        m = len(ring_edges)
        n_up = q - 2 - n_down if k < depth else np.zeros(m, dtype=np.int64)
        n_ring = int(n_up.sum()) - m
        ups = n_edges + n_ring + np.arange(n_up.sum())
        degree = 2 + n_down + n_up
        start = np.cumsum(degree) - degree
        rot = np.empty(int(degree.sum()), dtype=np.int64)
        rot[start] = ring_edges
        owner, rank = _runs(n_down)
        rot[start[owner] + n_down[owner] - rank] = downs
        rot[start + 1 + n_down] = np.roll(ring_edges, 1)
        owner, rank = _runs(n_up)
        rot[start[owner] + 2 + n_down[owner] + rank] = ups
        slots.append(rot)
        degrees.append(degree)
        if k < depth:
            # the ring's j-th up edge, from its vertex i, ends on next-ring
            # vertex j - i; the last one wraps around to vertex 0, which
            # lists it first
            n_down = np.bincount((np.arange(len(ups)) - owner) % n_ring, minlength=n_ring)
            downs = np.roll(ups, 1)
            ring_edges = n_edges + np.arange(n_ring)
            n_edges += n_ring + len(ups)

    # an edge's first slot in vertex order is dart 2e, its second 2e + 1
    edge = np.concatenate(slots)
    darts = 2 * edge + (_first_at(edge, n_edges)[edge] != np.arange(len(edge)))
    offsets = np.concatenate([[0], np.cumsum(np.concatenate(degrees))])
    n_vertices = len(offsets) - 1
    return RotationGraph(darts, offsets, frontier=range(n_vertices - m, n_vertices))


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and rank within its run of each item, for runs of ``counts``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _from_vertex_cycles(cycles: list[tuple[int, ...]]) -> RotationGraph:
    """The simple graph whose faces, the outer one included, are the vertex
    ``cycles``; ``from_walks`` numbers vertices and edges by first appearance.

    An edge is keyed by its two ends, ``min * n + max``, ranked among the
    keys so that ``from_walks``' count tables stay as long as the walks,
    not ``n ** 2``.
    """
    tails = np.concatenate(cycles)
    heads = np.concatenate([np.roll(c, -1) for c in cycles])
    n = int(tails.max()) + 1
    pair = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    keys = np.unique(pair, return_inverse=True)[1]
    return RotationGraph.from_walks(tails, keys, list(map(len, cycles))).graph
