"""Generators for the stock graphs used as controls and building blocks.

The main workhorse is the ring-by-ring generator for the triangulations
``{3,q}`` (every face a triangle, every interior vertex of degree ``q``);
``q = 6`` gives the flat hexagonal lattice and ``q >= 7`` the hyperbolic
triangulations.  Their duals supply the ``{q,3}`` tilings.
"""

from __future__ import annotations

import numpy as np

from .errors import GraphError
from .graph_core import RotationGraph


def path_graph(n_edges: int) -> RotationGraph:
    """Path with ``n_edges`` edges; vertex 0 is one end."""
    if n_edges < 1:
        raise GraphError("path needs at least one edge")
    incidence = [[0]]
    for v in range(1, n_edges):
        incidence.append([v - 1, v])
    incidence.append([n_edges - 1])
    return RotationGraph.from_rotations(incidence)


def cycle_graph(n: int) -> RotationGraph:
    """Cycle with ``n >= 2`` vertices (n = 2 gives a doubled edge)."""
    if n < 2:
        raise GraphError("cycle needs at least 2 vertices")
    incidence = [[(v - 1) % n, v] for v in range(n)]
    return RotationGraph.from_rotations(incidence)


def regular_tree(degree: int, depth: int) -> RotationGraph:
    """Rooted tree, all non-leaf vertices of the given degree, leaves at ``depth``."""
    if degree < 2 or depth < 1:
        raise GraphError("need degree >= 2 and depth >= 1")
    incidence: list[list[int]] = [[]]
    level = [0]
    n_edges = 0
    for d in range(depth):
        nxt = []
        for v in level:
            n_child = degree if d == 0 else degree - 1
            for _ in range(n_child):
                w = len(incidence)
                incidence.append([n_edges])
                incidence[v].append(n_edges)
                n_edges += 1
                nxt.append(w)
        level = nxt
    return RotationGraph.from_rotations(incidence, frontier=set(level))


def octahedron() -> RotationGraph:
    faces = [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    return RotationGraph.from_face_cycles(faces)


def cube() -> RotationGraph:
    faces = [
        (0, 3, 2, 1), (4, 5, 6, 7),
        (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ]
    return RotationGraph.from_face_cycles(faces)


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
    return RotationGraph.from_face_cycles(faces + [tuple(outer)])


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

    def edge_id(a: tuple, b: tuple) -> int | None:
        return eid.get((a, b), eid.get((b, a)))

    incidence = []
    for c in coords:
        x, y = c
        rot = []
        for other in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
            e = edge_id(c, other) if other in vid else None
            if e is not None:
                rot.append(e)
        incidence.append(rot)
    frontier = {vid[c] for c in coords if abs(c[0]) + abs(c[1]) == radius}
    return RotationGraph.from_rotations(incidence, frontier=frontier)


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

    offsets = np.concatenate([[0], np.cumsum(np.concatenate(degrees))])
    n_vertices = len(offsets) - 1
    return RotationGraph.from_edge_slots(
        np.concatenate(slots), offsets, frontier=range(n_vertices - m, n_vertices)
    )


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and rank within its run of each item, for runs of ``counts``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def hex_flower() -> RotationGraph:
    """Single interior vertex with six unit petals (smallest packing test case)."""
    return triangular_ball(6, 1)
