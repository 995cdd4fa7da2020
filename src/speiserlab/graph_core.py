"""Rotation-system representation of locally finite planar graphs.

A graph is stored by its vertex rotations, each the cyclic sequence of darts
(half-edges) leaving a vertex, held once as flat read-only int64 arrays: the
darts in rotation order with per-vertex offsets, the vertex of every dart and
the rotation successor of every dart.  Edge ``e`` always owns the two darts
``2*e`` and ``2*e + 1``, so the twin of dart ``d`` is ``d ^ 1``.  Multiple
edges are allowed, self-loops are not.  Infinite graphs are represented by
finite truncations whose incomplete rim vertices are listed in ``frontier``.
A graph is made in one of two ways: ``RotationGraph(darts, offsets)``, the
one constructor, validates those arrays and the frontier and tag ids, and
``RotationGraph.from_walks`` builds a graph from its face walks (below).  A
graph is read through its arrays, not through per-element accessors.

Face tracing uses ``next(d) = rotation_successor(twin(d))``; its orbits
partition the darts.  ``trace_faces`` computes them once per graph as flat
numpy arrays (``Faces``), the only face representation: every consumer
reads face lengths, darts, vertices and frontier flags from them.  The dual
swaps the roles of the face permutation and the rotation, which makes
``dual(dual(g))`` the identity on frontier-free graphs.

BFS layers have one representation as well: ``bfs_layers(g, root)`` holds
the distances from ``root`` in one read-only array, cached on the graph per
root, and spheres, balls and cut sets are read off it.

Graph rewrites describe their result by its faces: ``from_walks`` takes the
face walks as flat integer arrays (vertex keys, edge keys, walk lengths),
numbers edges by first appearance, keeps the ids of vertex keys below
``keep`` and numbers the other keys after them by first appearance, and
recovers the rotations as the orbits of ``face_next o twin``.  Keys are
non-negative and index tables as long as the largest key, so numbering is
counting, not sorting; every rewrite draws its keys from dense ranges.  Each
rewrite thus builds its graph, validated, in one construction.  The faces a
rewrite subdivides or fills are those of ``interior_face_mask``, the one
rule for interior faces, which ``classify`` reads as well: the faces off the
frontier, so a frontier-free map has no outer face.

Circle/cross tags reach a graph only when it is made: through the
constructor's ``tags``, from ``build_graph`` and ``induced_ball``, or as the
tagged copy that ``two_colored`` returns for the Speiser constructions.
No module outside this one assigns an attribute of a built graph.

The Graph JSON v1 codec works on the flat arrays too: ``to_json`` fills each
block (edges, vertices, tags) with one ``%`` from a flat list of ints, and
``build_graph`` decodes with the cyclic collector paused, matches half-edge
and vertex ids by sorting, reads the rotations into flat arrays once and
constructs from them.  ``to_json_dict`` is the dict form.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from .errors import FrontierError, GraphError

TAG_CIRCLE = "circle"
TAG_CROSS = "cross"


class RotationGraph:
    """Planar multigraph with an explicit rotation system.

    Instances are immutable after construction; transformations build new
    graphs.  The rotation system is held once, in read-only int64 arrays:
    the darts at ``v`` in cyclic order are
    ``rot_darts[rot_offsets[v]:rot_offsets[v + 1]]``, ``dart_vertex[d]`` is
    the vertex of dart ``d`` and ``rot_succ[d]`` the dart after ``d`` in that
    vertex's rotation.  Dart ``d`` belongs to edge ``d // 2`` with twin
    ``d ^ 1``.  A graph is made by the constructor, from its darts, or by
    ``from_walks``, from its faces.  It is read through these arrays;
    ``rotations`` rebuilds every vertex's list on each access.  The faces
    and the BFS layering from each root are computed once and cached.
    """

    __slots__ = (
        "rot_darts",
        "rot_offsets",
        "dart_vertex",
        "rot_succ",
        "frontier",
        "tags",
        "n_vertices",
        "n_edges",
        "n_darts",
        "_faces",
        "_layers",
    )

    def __init__(
        self,
        darts: np.ndarray,
        offsets: np.ndarray,
        frontier: Iterable[int] = (),
        tags: dict[int, str] | None = None,
    ):
        """Build from the darts in rotation order and per-vertex offsets.

        The one constructor, and the only one that takes ``tags``:
        ``build_graph`` and ``induced_ball`` pass the tags they read or keep.
        Darts and offsets must be integer arrays, frontier ids and tag keys
        Python or numpy integers in ``range(n_vertices)`` and tag values
        strings (``GraphError`` otherwise).
        """
        darts, offsets = _int64(darts, "darts"), _int64(offsets, "offsets")
        if darts.ndim != 1 or offsets.ndim != 1 or not len(offsets):
            raise GraphError("darts and offsets must be 1-D, offsets non-empty")
        if offsets[0] != 0:
            raise GraphError(f"offsets start at {offsets[0]}, not 0")
        degree = np.diff(offsets)
        drop = np.flatnonzero(degree < 0)
        if len(drop):
            raise GraphError(f"offsets decrease at vertex {drop[0]}")
        if offsets[-1] != len(darts):
            raise GraphError(
                f"offsets end at {offsets[-1]}, but there are {len(darts)} darts"
            )
        self.n_vertices = len(offsets) - 1
        self.frontier = frozenset(frontier)
        _check_vertex_ids(self.frontier, self.n_vertices, "frontier vertex")
        self.tags = dict(tags) if tags else None
        if self.tags:
            _check_vertex_ids(self.tags, self.n_vertices, "tag key")
            if set(map(type, self.tags.values())) - {str}:
                bad = next(v for v, t in self.tags.items() if type(t) is not str)
                raise GraphError(f"tag on vertex {bad} is not a string")
        self.n_darts = len(darts)
        if self.n_darts % 2:
            raise GraphError("odd number of darts")
        self.n_edges = self.n_darts // 2
        bad = (darts < 0) | (darts >= self.n_darts)
        if bad.any():
            raise GraphError(f"malformed rotation: dart {darts[bad][0]} out of range")
        twice = np.bincount(darts, minlength=self.n_darts) > 1
        if twice.any():
            raise GraphError(
                f"malformed rotation: dart {np.flatnonzero(twice)[0]} appears twice"
            )
        dart_vertex = np.full(self.n_darts, -1, dtype=np.int64)
        dart_vertex[darts] = np.repeat(np.arange(self.n_vertices), degree)
        dangling = np.flatnonzero(dart_vertex == -1)
        if len(dangling):
            raise GraphError(f"dangling half-edge {dangling[0]}: not in any rotation")
        loops = np.flatnonzero(dart_vertex[0::2] == dart_vertex[1::2])
        if len(loops):
            e = loops[0]
            raise GraphError(
                f"self-loop: edge {e} joins vertex {dart_vertex[2 * e]} to itself"
            )
        if self.n_vertices == 0:
            raise GraphError("empty graph")
        # rotation slot after each slot: the next one, or the vertex's first
        succ = np.arange(1, self.n_darts + 1)
        has = degree > 0
        succ[offsets[1:][has] - 1] = offsets[:-1][has]
        rot_succ = np.empty(self.n_darts, dtype=np.int64)
        rot_succ[darts] = darts[succ]
        for arr in (darts, offsets, dart_vertex, rot_succ):
            arr.flags.writeable = False
        self.rot_darts, self.rot_offsets = darts, offsets
        self.dart_vertex, self.rot_succ = dart_vertex, rot_succ
        self._faces = None
        self._layers: dict[int, LayerDecomposition] = {}
        if connected_components(_adjacency(self), directed=False)[0] != 1:
            raise GraphError("disconnected graph")

    # -- basic queries ----------------------------------------------------
    # ``rotations`` and ``degree`` stay because perfbench reads them

    @property
    def rotations(self) -> list[list[int]]:
        """The darts at each vertex in cyclic order, as fresh lists."""
        return _split(self.rot_darts, self.rot_offsets)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n_vertices:
            raise GraphError(f"vertex {v} out of range")
        return self.rot_offsets.item(v + 1) - self.rot_offsets.item(v)

    # -- constructor from face walks -------------------------------------

    @classmethod
    def from_walks(
        cls,
        tails: Sequence[int] | np.ndarray,
        edge_keys: Sequence[int] | np.ndarray,
        lengths: Sequence[int] | np.ndarray,
        keep: int = 0,
        frontier: Iterable[int] = (),
    ) -> "WalkBuild":
        """Build a graph from its complete list of oriented face walks.

        The walks come flat: walk ``i`` is the next ``lengths[i]`` items, and
        item ``j`` leaves the vertex with integer key ``tails[j]`` along the
        edge with integer key ``edge_keys[j]``.  Every edge key must occur
        exactly twice overall, with distinct tails.  The rotation system is
        recovered from the face structure (the rotations are the orbits of
        ``face_next o twin``), so callers describe transformations purely in
        terms of new faces.

        Vertex keys in ``[0, keep)`` become the vertices of the same id; the
        other keys are numbered ``keep, keep + 1, ...`` in order of first
        appearance.  Edges are numbered in order of first appearance, and an
        edge's first occurrence is dart ``2e``.  ``frontier`` names vertices
        by key; keys that never occur are ignored.  The walks are the faces
        of the result, whose face table is filled in here.

        Keys must be non-negative (``GraphError`` otherwise): they index
        count and first-position tables as long as the largest key, so the
        numbering takes no sort.
        """
        tails = np.asarray(tails, dtype=np.int64)
        items = np.asarray(edge_keys, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if not len(lengths):
            raise GraphError("no face walks")
        if (lengths <= 0).any():
            raise GraphError("empty face walk")
        if len(tails) != len(items) or int(lengths.sum()) != len(items):
            raise GraphError("walk lengths do not match the walk items")
        if min(items.min(), tails.min()) < 0:
            raise GraphError("walk keys must be non-negative")
        pos = np.arange(len(items))

        count = np.bincount(items)
        if (count > 2).any():
            raise GraphError(
                f"edge key {int(np.argmax(count > 2))} used more than twice"
            )
        if (count == 1).any():
            raise GraphError(
                f"edge keys appearing once: {np.flatnonzero(count == 1)[:5].tolist()}"
            )
        # an edge's first occurrence is dart 2e, edges numbered in that order
        second = _first_at(items, len(count))[items] != pos
        edge_key = items[~second]
        edge_id = np.empty(len(count), dtype=np.int64)
        edge_id[edge_key] = np.arange(len(edge_key))
        dart = 2 * edge_id[items] + second
        del count, second, edge_id

        # keys below keep are ids; the others follow in order of first sight
        first_v = _first_at(tails, max(keep, int(tails.max()) + 1))
        new_key = tails[(first_v[tails] == pos) & (tails >= keep)]
        vertex_key = np.concatenate([np.arange(keep), new_key])
        n_vertices = len(vertex_key)
        vid = np.arange(len(first_v))
        vid[new_key] = np.arange(keep, n_vertices)

        n_darts = 2 * len(edge_key)
        dart_tail = np.empty(n_darts, dtype=np.int64)
        dart_tail[dart] = vid[tails]
        loops = np.flatnonzero(dart_tail[0::2] == dart_tail[1::2])
        if len(loops):
            raise GraphError(
                f"self-loop: edge key {int(edge_key[loops[0]])} has equal tails"
            )

        start = np.cumsum(lengths) - lengths
        succ = pos + 1
        succ[start + lengths - 1] = start
        face_next = np.empty(n_darts, dtype=np.int64)
        face_next[dart] = dart[succ]
        sigma = face_next[np.arange(n_darts) ^ 1]
        if (dart_tail[sigma] != dart_tail).any():
            raise GraphError("inconsistent walks: rotation mixes vertices")
        stars = _cycles(sigma, dart_tail, n_vertices)
        if stars is None:
            raise GraphError("inconsistent walks: vertex key has a disconnected star")
        del sigma

        if not isinstance(frontier, np.ndarray):
            frontier = list(frontier)
        # the frontier keys that occur as tails, as vertex ids
        front = np.asarray(frontier, dtype=np.int64)
        front = front[(front >= 0) & (front < len(first_v))]
        front = vid[front[first_v[front] < len(pos)]]
        g = cls(*stars, frontier=front.tolist())

        # the walks are the faces: list each from its smallest dart, in the
        # order of those darts, as trace_faces does
        walk_min = np.minimum.reduceat(dart, start)
        walk_face = _rank(walk_min, n_darts)
        face_offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        face_offsets[1:][walk_face] = lengths
        np.cumsum(face_offsets, out=face_offsets)
        shift = np.flatnonzero(dart == np.repeat(walk_min, lengths)) - start
        at = (pos - np.repeat(start + shift, lengths)) % np.repeat(lengths, lengths)
        face_darts = np.empty(len(items), dtype=np.int64)
        face_darts[np.repeat(face_offsets[walk_face], lengths) + at] = dart
        g._faces = Faces(g, face_darts, face_offsets)
        return WalkBuild(g, vertex_key, edge_key, walk_face)


class WalkBuild(NamedTuple):
    """Result of ``RotationGraph.from_walks``.

    ``vertex_key[v]`` and ``edge_key[e]`` are the keys that became vertex
    ``v`` and edge ``e``; ``walk_face[i]`` is the index in
    ``trace_faces(graph)`` of the face that walk ``i`` became.
    """

    graph: RotationGraph
    vertex_key: np.ndarray
    edge_key: np.ndarray
    walk_face: np.ndarray


def _int64(values, what: str) -> np.ndarray:
    """``values`` as a new int64 view, so that making it read-only leaves the
    caller's array writeable; a GraphError unless the items are integers."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise GraphError(f"{what} must be integers, not {arr.dtype}")
    return np.asarray(arr, dtype=np.int64).view()


def _check_vertex_ids(ids: Collection, n: int, what: str) -> None:
    """A GraphError naming an item of ``ids`` that is not a Python or numpy
    integer in ``range(n)``."""
    kinds = {t for t in set(map(type, ids)) - {int} if not issubclass(t, np.integer)}
    if kinds:
        bad = next(v for v in ids if type(v) in kinds)
        raise GraphError(f"{what} {bad!r} is not an integer")
    if ids and not (min(ids) >= 0 and max(ids) < n):
        raise GraphError(f"{what} {min(v for v in ids if not 0 <= v < n)} out of range")


def _first_at(keys: np.ndarray, n_keys: int) -> np.ndarray:
    """Per key in ``range(n_keys)``, its first position in ``keys``
    (``len(keys)`` for a key that does not occur)."""
    first = np.full(n_keys, len(keys), dtype=np.int64)
    np.minimum.at(first, keys, np.arange(len(keys)))
    return first


def _rank(points: np.ndarray, n: int) -> np.ndarray:
    """The rank of each of the distinct ``points`` in ``range(n)`` among them."""
    marked = np.zeros(n, dtype=bool)
    marked[points] = True
    return np.cumsum(marked)[points] - 1


def _cycles(
    perm: np.ndarray, label: np.ndarray, n_labels: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Points of a permutation grouped by label, each group in cycle order.

    Every label class should be one cycle of ``perm``; it is listed from its
    smallest point.  Returns ``(points, offsets)``, class ``c`` being
    ``points[offsets[c]:offsets[c + 1]]``, or None when a class is not a
    single cycle.  The positions along each cycle come from list ranking by
    pointer jumping: ceil(log2(longest class)) vectorised rounds.
    """
    n = len(perm)
    points = np.arange(n)
    count = np.bincount(label, minlength=n_labels)
    offsets = np.zeros(n_labels + 1, dtype=np.int64)
    np.cumsum(count, out=offsets[1:])
    head = _first_at(label, n_labels)
    # cut every cycle in front of its head: succ is -1 at the cycle's last point
    succ = perm.copy()
    succ[perm == head[label]] = -1
    to_end = (succ >= 0).astype(np.int64)
    active = np.flatnonzero(succ >= 0)
    for _ in range(int(count.max()).bit_length() if n else 0):
        if not len(active):
            break
        nxt = succ[active]
        to_end[active] += to_end[nxt]
        succ[active] = succ[nxt]
        active = active[succ[active] >= 0]
    if len(active):
        return None
    out = np.empty(n, dtype=np.int64)
    out[offsets[label] + count[label] - 1 - to_end] = points
    return out, offsets


class Faces:
    """The faces of a graph as flat arrays.

    Face ``f`` is ``darts[offsets[f]:offsets[f + 1]]``, listed from its
    smallest dart; faces are ordered by that dart.  ``vertices`` holds the
    tail of every entry of ``darts``, ``lengths`` the length of every face
    and ``touches_frontier`` whether the face has a frontier vertex.
    """

    __slots__ = ("darts", "offsets", "lengths", "vertices", "touches_frontier")

    def __init__(self, g: RotationGraph, darts: np.ndarray, offsets: np.ndarray):
        self.darts = darts
        self.offsets = offsets
        self.lengths = np.diff(offsets)
        self.vertices = g.dart_vertex[darts]
        front = np.zeros(g.n_vertices, dtype=bool)
        front[list(g.frontier)] = True
        touching = front[self.vertices]
        self.touches_frontier = np.logical_or.reduceat(touching, offsets[:-1])

    def face_index(self) -> np.ndarray:
        """Face of every entry of ``darts``."""
        return np.repeat(np.arange(len(self.lengths)), self.lengths)

    def face_of(self) -> np.ndarray:
        """Face of every dart id."""
        owner = np.empty(len(self.darts), dtype=np.int64)
        owner[self.darts] = self.face_index()
        return owner

    def __len__(self) -> int:
        return len(self.lengths)


def trace_faces(g: RotationGraph) -> Faces:
    """Partition all darts into face walks (cached on the graph).

    The faces are the cycles of ``next(d) = rot_succ[d ^ 1]``: their
    labels come from ``connected_components`` and their order along each
    cycle from ``_cycles``.
    """
    if g._faces is not None:
        return g._faces
    n = g.n_darts
    phi = g.rot_succ[np.arange(n) ^ 1]
    n_faces, label = connected_components(
        csr_matrix((np.ones(n, dtype=np.int8), phi, np.arange(n + 1)), shape=(n, n)),
        directed=True,
        connection="weak",
    ) if n else (0, np.zeros(0, dtype=np.int64))
    # number the faces by their smallest dart
    rank = _rank(_first_at(label, n_faces), n)
    g._faces = Faces(g, *_cycles(phi, rank[label], n_faces))
    return g._faces


def interior_face_mask(g: RotationGraph) -> np.ndarray:
    """Boolean per face of ``trace_faces(g)``: the interior faces, those
    that avoid the frontier, the faces ``dual`` keeps.  A frontier-free map
    has no outer face: every face is interior.
    """
    return ~trace_faces(g).touches_frontier


def euler_characteristic(g: RotationGraph) -> int:
    return g.n_vertices - g.n_edges + len(trace_faces(g))


def dual(g: RotationGraph) -> RotationGraph:
    """Dual graph: one vertex per face, one edge per primal edge.

    The faces touching the frontier of a truncation are ambiguous, so they
    are dropped, with the edges on them, and the surviving faces adjacent to
    a dropped face are marked as the dual's frontier.  On a frontier-free
    map every face is kept and every dart keeps its id.  A kept edge with
    the same face on both sides would become a self-loop and is rejected.
    """
    faces = trace_faces(g)
    owner = faces.face_of()
    kept = ~faces.touches_frontier
    if not kept.any():
        raise GraphError("no faces left after dropping frontier faces")
    # edges kept: both sides are kept faces, renumbered in edge order; the
    # kept faces are numbered in face order
    edge_kept = kept[owner[0::2]] & kept[owner[1::2]]
    same = np.flatnonzero(edge_kept & (owner[0::2] == owner[1::2]))
    if len(same):
        raise GraphError(f"edge {same[0]} has the same face on both sides")
    new_eid = np.cumsum(edge_kept) - 1
    fid = faces.face_index()
    on_kept = edge_kept[faces.darts >> 1]
    sel = on_kept & kept[fid]
    darts = faces.darts[sel]
    offsets = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(fid[sel], minlength=len(faces))[kept], out=offsets[1:])
    clipped = np.logical_or.reduceat(~on_kept, faces.offsets[:-1])[kept]
    return RotationGraph(
        2 * new_eid[darts >> 1] + (darts & 1),
        offsets,
        frontier=np.flatnonzero(clipped).tolist(),
    )


def _flatten(lists: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated items and offsets, the inverse of ``_split``."""
    lists = list(lists)
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lists), np.int64, len(lists)), out=offsets[1:])
    return np.fromiter(chain.from_iterable(lists), np.int64, int(offsets[-1])), offsets


def _split(flat: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """The lists ``flat[offsets[i]:offsets[i + 1]]``, as Python ints."""
    items, bounds = flat.tolist(), offsets.tolist()
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _lookup(keys: np.ndarray, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``values[i]`` for each query equal to ``keys[i]`` (``keys`` sorted and
    unique), -1 where no key matches."""
    if not len(keys):
        return np.full(len(queries), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[at] == queries, values[at], -1)


def _adjacency(g: RotationGraph) -> csr_matrix:
    """Vertex adjacency in CSR form, one entry per dart (multiplicity kept)."""
    return csr_matrix(
        (
            np.ones(g.n_darts, dtype=np.int8),
            g.dart_vertex[g.rot_darts ^ 1],
            g.rot_offsets,
        ),
        shape=(g.n_vertices, g.n_vertices),
    )


@dataclass(frozen=True, eq=False)
class LayerDecomposition:
    """Combinatorial distances from a root, the one form of a BFS layering.

    ``dist[v]`` is the distance of ``v`` from ``root`` (read-only int64).
    The sphere S(n) is ``np.flatnonzero(dist == n)``, the ball B(n) is
    ``dist <= n`` and the cut set E(n) holds the edges from S(n) to S(n + 1).
    ``reliable_depth`` is the largest n for which S(0..n) equal the spheres
    of the non-truncated graph; cut sets are reliable up to
    ``reliable_depth - 1``.
    """

    root: int
    dist: np.ndarray
    depth: int
    reliable_depth: int
    _cut_counts: np.ndarray = field(repr=False)

    def sphere_sizes(self) -> list[int]:
        return np.bincount(self.dist, minlength=self.depth + 1).tolist()

    def ball_sizes(self) -> list[int]:
        return np.cumsum(self.sphere_sizes()).tolist()

    def cut_sizes(self) -> list[int]:
        return self._cut_counts.tolist()


def cut_counts(du: np.ndarray, dv: np.ndarray, n: int) -> np.ndarray:
    """|E(k)| for k < n of the edges with ends at distances ``du``, ``dv``
    from the root (at most one apart): per k, the edges from S(k) to S(k+1)."""
    return np.bincount(np.minimum(du, dv)[du != dv], minlength=n)


def bfs_layers(g: RotationGraph, root: int) -> LayerDecomposition:
    """BFS distances from ``root``, cached on the graph per root.

    Every reader of spheres, balls or cut sets around ``root`` (multiplicity
    kept) takes them from this layering, so a graph is searched once per
    root.  The cut sizes |E(n)| are counted here, by ``cut_counts``.
    """
    layers = g._layers.get(root)
    if layers is not None:
        return layers
    if not (0 <= root < g.n_vertices):
        raise GraphError(f"root {root} not in graph")
    # graphs are connected, so every vertex is reached
    dist = shortest_path(_adjacency(g), unweighted=True, indices=root).astype(np.int64)
    depth = int(dist.max())
    du, dv = dist[g.dart_vertex[0::2]], dist[g.dart_vertex[1::2]]
    if (np.abs(du - dv) > 1).any():
        raise GraphError("BFS layering broken: edge skips a sphere")
    cuts = cut_counts(du, dv, depth)
    front = dist[np.fromiter(g.frontier, np.int64, len(g.frontier))]
    dist.flags.writeable = cuts.flags.writeable = False
    layers = g._layers[root] = LayerDecomposition(
        root=root,
        dist=dist,
        depth=depth,
        reliable_depth=int(front.min()) if len(front) else depth,
        _cut_counts=cuts,
    )
    return layers


@dataclass
class GraphClassification:
    is_bipartite: bool
    homogeneous_degree: int | None
    is_disk_triangulation: bool
    max_degree: int | None
    p_of: int | None


def _odd_parity(g: RotationGraph) -> np.ndarray | None:
    """Per vertex, whether its BFS distance from vertex 0 is odd; None if an
    edge joins two vertices of equal parity (an odd cycle exists)."""
    odd = bfs_layers(g, 0).dist % 2 == 1
    return None if (odd[g.dart_vertex[0::2]] == odd[g.dart_vertex[1::2]]).any() else odd


def two_coloring(g: RotationGraph) -> dict[int, str] | None:
    """Circle/cross tags by BFS distance parity from vertex 0, or None if an
    odd cycle exists."""
    odd = _odd_parity(g)
    if odd is None:
        return None
    tag = (TAG_CIRCLE, TAG_CROSS)
    return {v: tag[p] for v, p in enumerate(odd.tolist())}


def two_colored(g: RotationGraph) -> RotationGraph | None:
    """``g`` tagged with ``two_coloring(g)``, or None if an odd cycle exists.

    The tagged graph shares ``g``'s read-only arrays and its face and BFS
    caches, so nothing is validated, traced or searched again.
    """
    tags = two_coloring(g)
    if tags is None:
        return None
    out = RotationGraph.__new__(RotationGraph)
    for name in RotationGraph.__slots__:
        setattr(out, name, getattr(g, name))
    out.tags = tags
    return out


def classify(g: RotationGraph) -> GraphClassification:
    """Structural flags computed on the non-frontier part of the graph.

    The graph is a disk triangulation when it has an interior face
    (``interior_face_mask``) and every interior face is a triangle.
    """
    degree = np.diff(g.rot_offsets)
    inside = np.ones(g.n_vertices, dtype=bool)
    inside[list(g.frontier)] = False
    degrees = degree[inside]
    homogeneous = max_degree = None
    if len(degrees):
        max_degree = int(degrees.max())
        if (degrees == max_degree).all():
            homogeneous = max_degree

    inner = interior_face_mask(g)
    is_tri = bool(inner.any()) and bool((trace_faces(g).lengths[inner] == 3).all())

    # the largest min(deg u, deg v) over edges with no frontier end
    u, v = g.dart_vertex[0::2], g.dart_vertex[1::2]
    keep = inside[u] & inside[v]
    p_of = int(np.minimum(degree[u], degree[v])[keep].max()) if keep.any() else None

    return GraphClassification(
        is_bipartite=_odd_parity(g) is not None,
        homogeneous_degree=homogeneous,
        is_disk_triangulation=is_tri,
        max_degree=max_degree,
        p_of=p_of,
    )


def induced_ball(g: RotationGraph, n: int) -> RotationGraph:
    """Induced subgraph on the ball B(n) around vertex 0, S(n) its frontier.

    Kept vertices and edges are renumbered in increasing id.  Only the
    rotation slots of the ball's vertices are read.  Within the reliable
    depth every frontier vertex of ``g`` in B(n), and every vertex that loses
    an edge, lies on S(n), so S(n) is the whole frontier of the ball.
    """
    layers = bfs_layers(g, 0)
    if n > layers.reliable_depth:
        raise FrontierError(
            f"ball of radius {n} exceeds reliable depth {layers.reliable_depth}"
        )
    inside = layers.dist <= n
    keep = np.flatnonzero(inside)
    # the rotation slots of the kept vertices, in vertex order; a slot stays
    # when the far end of its edge is kept too
    first = g.rot_offsets[keep]
    degree = g.rot_offsets[keep + 1] - first
    owner = np.repeat(np.arange(len(keep)), degree)
    start = first - (np.cumsum(degree) - degree)
    slots = np.arange(len(owner)) + np.repeat(start, degree)
    darts = g.rot_darts[slots]
    stays = inside[g.dart_vertex[darts ^ 1]]
    darts = darts[stays]
    offsets = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[stays], minlength=len(keep)), out=offsets[1:])
    # the kept edges, renumbered in edge order as in ``dual``; the mask ends
    # at the largest kept edge id, so a small ball costs no O(|E(g)|) pass
    edge_kept = np.bincount(darts >> 1) > 0
    new_eid = np.cumsum(edge_kept) - 1
    tags = None
    if g.tags:
        tags = {i: g.tags[v] for i, v in enumerate(keep.tolist()) if v in g.tags}
    return RotationGraph(
        2 * new_eid[darts >> 1] + (darts & 1),
        offsets,
        frontier=np.flatnonzero(layers.dist[keep] == n).tolist(),
        tags=tags,
    )


# -- canonical labeling --------------------------------------------------


def _signature_from(g: RotationGraph, d0: int) -> tuple:
    """Canonical traversal signature starting at dart ``d0``."""
    step, vertex = g.rot_succ.tolist(), g.dart_vertex.tolist()
    dart_label: dict[int, int] = {}
    order: list[int] = []

    def visit_vertex(entry: int) -> None:
        d = entry
        while True:
            dart_label[d] = len(dart_label)
            order.append(d)
            d = step[d]
            if d == entry:
                break

    visit_vertex(d0)
    i = 0
    seen_vertices = {vertex[d0]}
    while i < len(order):
        d = order[i]
        i += 1
        t = d ^ 1
        v = vertex[t]
        if v not in seen_vertices:
            seen_vertices.add(v)
            visit_vertex(t)
    sig_twins = tuple(dart_label[d ^ 1] for d in order)
    sig_front = tuple(1 if vertex[d] in g.frontier else 0 for d in order)
    return sig_twins, sig_front


def canonical_form(g: RotationGraph) -> tuple:
    """Minimum traversal signature over all root darts (O(darts^2))."""
    best = None
    for d0 in range(g.n_darts):
        sig = _signature_from(g, d0)
        if best is None or sig < best:
            best = sig
    return best


def is_isomorphic(a: RotationGraph, b: RotationGraph) -> bool:
    if a.n_darts != b.n_darts or a.n_vertices != b.n_vertices:
        return False
    return canonical_form(a) == canonical_form(b)


# -- JSON graph format v1 ------------------------------------------------


def to_json_dict(g: RotationGraph) -> dict:
    return {
        "version": 1,
        "vertices": [
            {"id": v, "rotation": rot} for v, rot in enumerate(g.rotations)
        ],
        "edges": [
            {"id": e, "halfedges": [2 * e, 2 * e + 1]} for e in range(g.n_edges)
        ],
        "frontier": sorted(g.frontier),
        "tags": {str(v): t for v, t in sorted((g.tags or {}).items())},
    }


def _block(opening: str, items: list[str], depth: int) -> str:
    """A JSON array (``opening`` "[") or object ("{") of already written
    items, laid out as ``json.dumps(indent=2)`` lays it out at nesting
    ``depth``."""
    closing = "]" if opening == "[" else "}"
    if not items:
        return opening + closing
    pad = "\n" + "  " * (depth + 1)
    return opening + pad + ("," + pad).join(items) + "\n" + "  " * depth + closing


def to_json(g: RotationGraph) -> str:
    """Graph JSON v1 text of ``g``, written straight from the flat arrays.

    The text equals ``json.dumps(to_json_dict(g), sort_keys=True, indent=2)``
    plus a newline: keys in sorted order, tag keys sorted as strings, and
    only the tag values, which are strings, pass through ``json.dumps``.
    The edge block is one record template repeated, the vertex block one
    template per degree in vertex order and the tag block one template per
    tag value; each is filled by a single ``%`` from a flat list of ints,
    not record by record.
    """
    edge = _block("{", ['"halfedges": ' + _block("[", ["%d", "%d"], 3), '"id": %d'], 2)
    e = np.arange(g.n_edges)
    edges = _block("[", [edge] * g.n_edges, 1) % tuple(
        np.stack([2 * e, 2 * e + 1, e], axis=1).ravel().tolist()
    )

    # a vertex record's ints are its id, then its darts
    degree = np.diff(g.rot_offsets).tolist()
    vertex = {
        k: _block("{", ['"id": %d', '"rotation": ' + _block("[", ["%d"] * k, 3)], 2)
        for k in set(degree)
    }
    vertices = _block("[", list(map(vertex.__getitem__, degree)), 1) % tuple(
        np.insert(g.rot_darts, g.rot_offsets[:-1], np.arange(g.n_vertices)).tolist()
    )

    # one tag template per tag value, its keys in string order
    tags = g.tags or {}
    tag = {t: '"%d": ' + json.dumps(t).replace("%", "%%") for t in set(tags.values())}
    keys = sorted(tags, key=str)
    fields = [
        '"edges": ' + edges,
        '"frontier": ' + _block("[", list(map(str, sorted(g.frontier))), 1),
        '"tags": ' + _block("{", [tag[tags[v]] for v in keys], 1) % tuple(keys),
        '"version": 1',
        '"vertices": ' + vertices,
    ]
    del edges, vertices
    return _block("{", fields, 0) + "\n"


def _flat_ints(lists: Sequence[Sequence], what: str) -> tuple[np.ndarray, np.ndarray]:
    """``_flatten(lists)``; a GraphError names the first item that is not an
    int64 integer."""
    if set(map(type, chain.from_iterable(lists))) - {int}:
        bad = next(x for x in chain.from_iterable(lists) if type(x) is not int)
        raise GraphError(f"{what} {bad!r} is not an integer")
    try:
        return _flatten(lists)
    except OverflowError:
        raise GraphError(f"{what} outside the int64 range") from None


def _sort_ids(ids: np.ndarray, repeated: str) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` sorted, and the position in ``ids`` of each; a GraphError
    ``repeated.format(id)`` names the first id listed a second time."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    again = order[1:][ranked[1:] == ranked[:-1]]
    if len(again):
        raise GraphError(repeated.format(ids[again.min()]))
    return ranked, order


def _find_ids(
    keys: np.ndarray, index: np.ndarray, ids: np.ndarray, missing: str
) -> np.ndarray:
    """``_lookup(keys, index, ids)``; a GraphError ``missing.format(id)``
    names the first id not among ``keys``."""
    found = _lookup(keys, index, ids)
    if (found < 0).any():
        raise GraphError(missing.format(ids[np.argmax(found < 0)]))
    return found


def _list_of(spec: dict, key: str) -> list:
    """``spec[key]``, default empty; a GraphError unless it is a list."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise GraphError(f"{key!r} must be a list")
    return value


def build_graph(spec: dict | str) -> RotationGraph:
    """Validate a serialized rotation-system description (JSON graph format v1).

    Half-edge ``j`` of edge record ``i`` becomes dart ``2i + j`` and vertex
    record ``i`` vertex ``i``; ids are matched by one sort each, and the
    rotations are read once into flat arrays.

    The cyclic collector is paused while the text is decoded and read, then
    restored: decoded JSON holds no cycle, yet each collection would rescan
    the document (243,401 containers for Γ), which is freed by reference
    counting before the collector resumes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _graph_from_spec(json.loads(spec) if isinstance(spec, str) else spec)
    finally:
        if enabled:
            gc.enable()


def _graph_from_spec(spec) -> RotationGraph:
    if not isinstance(spec, dict):
        raise GraphError("a graph document must be a JSON object")
    if spec.get("version") != 1:
        raise GraphError("unsupported graph format version")
    edges = _list_of(spec, "edges")
    try:
        pairs = [erec.get("halfedges", []) for erec in edges]
    except AttributeError:
        raise GraphError("every edge record must be an object") from None
    try:
        wrong = np.flatnonzero(np.fromiter(map(len, pairs), np.int64, len(pairs)) != 2)
    except TypeError:
        raise GraphError("every edge's half-edges must be a list") from None
    # edges before the first malformed one are checked for repeats first
    n_read = int(wrong[0]) if len(wrong) else len(pairs)
    halfedges, _ = _flat_ints(pairs[:n_read], "half-edge")
    h_sorted, h_dart = _sort_ids(halfedges, "half-edge {} listed by two edges")
    if len(wrong):
        raise GraphError(
            f"edge {edges[n_read].get('id')} must list exactly two half-edges"
        )

    vertices = _list_of(spec, "vertices")
    try:
        listed_ids = [vrec.get("id") for vrec in vertices]
    except AttributeError:
        raise GraphError("every vertex record must be an object") from None
    ids, _ = _flat_ints([listed_ids], "vertex id")
    v_sorted, v_index = _sort_ids(ids, "vertex id {} listed twice")
    try:
        listed, offsets = _flat_ints(
            [vrec.get("rotation", []) for vrec in vertices], "half-edge"
        )
    except TypeError:
        raise GraphError("every vertex rotation must be a list") from None
    darts = _find_ids(h_sorted, h_dart, listed, "dangling half-edge {} in rotation")

    front_ids, _ = _flat_ints([_list_of(spec, "frontier")], "frontier vertex")
    frontier = _find_ids(
        v_sorted, v_index, front_ids, "frontier vertex {} is not a vertex id"
    )
    tags_in = spec.get("tags") or {}
    if not isinstance(tags_in, dict):
        raise GraphError("'tags' must be an object")
    keys = []
    for k in tags_in:
        try:
            keys.append(int(k))
        except (TypeError, ValueError):
            raise GraphError(f"tag key {k!r} is not an integer") from None
    tag_ids, _ = _flat_ints([keys], "tag key")
    tagged = _find_ids(v_sorted, v_index, tag_ids, "tag on unknown vertex {}")
    if set(map(type, tags_in.values())) - {str}:
        bad = next(k for k, t in tags_in.items() if type(t) is not str)
        raise GraphError(f"tag on vertex {bad} is not a string")
    return RotationGraph(
        darts,
        offsets,
        frontier=frontier.tolist(),
        tags=dict(zip(tagged.tolist(), tags_in.values())),
    )
