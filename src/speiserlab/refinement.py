"""Midpoint subdivision, refinement-relation checking, and the two v-metric
transfer constructions between a graph and its refinement.

``subdivide4`` splits every interior triangle into four by connecting edge
midpoints; the refined vertex set is the disjoint union of the original
vertices and edges.  A ``RefinementMap`` is four arrays indexed by refined
vertex, original edge and refined face; ``walk_refinement_map`` reads it off
the keys of a subdivision's face walks (this one or
``speiser.lambda_triangulation``).  A v-metric is a float64 array of weights
indexed by vertex, validated by ``check_metric``.  ``coarsen_metric`` pushes a
metric from the refinement down to the base, ``refine_metric`` lifts one up;
both come with exact square-sum inequalities that the tests enforce on every
instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RefinementError
from .graph_core import (
    RotationGraph,
    WalkBuild,
    classify,
    interior_face_mask,
    trace_faces,
)

# what a refined vertex lies on in the original (``RefinementMap.origin_kind``)
VERTEX, EDGE, FACE = 0, 1, 2


def check_metric(g: RotationGraph, m) -> np.ndarray:
    """``m`` as a v-metric on ``g``: a float64 array of one finite,
    nonnegative weight per vertex."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (g.n_vertices,):
        raise RefinementError(f"v-metric of shape {m.shape} on {g.n_vertices} vertices")
    bad = np.flatnonzero(~(np.isfinite(m) & (m >= 0)))
    if len(bad):
        raise RefinementError(f"bad v-metric weight {m[bad[0]]} at vertex {bad[0]}")
    return m


@dataclass
class RefinementMap:
    """How a refined graph covers the original.

    Refined vertex ``w`` lies on vertex, edge or face ``origin[w]`` of the
    original, as ``origin_kind[w]`` (``VERTEX``, ``EDGE`` or ``FACE``) says;
    original vertices keep their ids.  Row ``e`` of ``edge_cover`` is the
    path of refined edges along edge ``e``, from the vertex of dart ``2e``.
    ``face_owner[rf]`` is the original face that refined face ``rf`` lies
    in, or -1 (faces numbered as by ``trace_faces``).
    """

    origin_kind: np.ndarray
    origin: np.ndarray
    edge_cover: np.ndarray
    face_owner: np.ndarray

    @classmethod
    def identity(cls, g: RotationGraph) -> "RefinementMap":
        return cls(
            origin_kind=np.full(g.n_vertices, VERTEX, dtype=np.int8),
            origin=np.arange(g.n_vertices),
            edge_cover=np.arange(g.n_edges).reshape(-1, 1),
            face_owner=np.arange(len(trace_faces(g))),
        )


def subdivide4(
    g: RotationGraph, outer_face: int | None = None
) -> tuple[RotationGraph, RefinementMap]:
    """Divide each interior triangle into four by connecting edge midpoints.

    The refined vertex set is V plus one midpoint per edge; original vertices
    keep their ids.  Rejects non-triangular interior faces.
    """
    faces = trace_faces(g)
    inner = interior_face_mask(g, outer_face)
    bad = np.flatnonzero(inner & (faces.lengths != 3))
    if len(bad):
        raise RefinementError(
            f"face {bad[0]} has {faces.lengths[bad[0]]} sides; "
            "subdivide4 needs triangles"
        )
    n, n_edges = g.n_vertices, g.n_edges
    d = faces.darts
    fid = faces.face_index()
    i = np.arange(len(d)) - faces.offsets[fid]
    # keys: midpoint of edge e is n + e; the half of edge e next to the tail
    # of dart d is d, and the inner edge opposite corner j of triangle f is
    # 2|E| + 3f + j
    mid = n + (d >> 1)
    block = np.where(inner, 12, 2 * faces.lengths)
    block0 = np.cumsum(block) - block
    total = int(block.sum())
    tails = np.empty(total, dtype=np.int64)
    keys = np.empty(total, dtype=np.int64)
    walk = np.full(total, -2, dtype=np.int64)  # walk starts: owner face or -1

    # other faces keep their walk, through the midpoints
    o = ~inner[fid]
    at = block0[fid[o]] + 2 * i[o]
    tails[at], keys[at] = faces.vertices[o], d[o]
    tails[at + 1], keys[at + 1] = mid[o], d[o] ^ 1
    walk[block0[~inner]] = -1

    # triangle f gives its three corners (items 3j..3j+2) and the middle one
    # (items 9..11)
    p = np.flatnonzero(inner[fid])
    f, j = fid[p], i[p]
    prev = p - j + (j + 2) % 3
    corner = block0[f] + 3 * j
    t = 2 * n_edges + 3 * f
    tails[corner], keys[corner] = faces.vertices[p], d[p]
    tails[corner + 1], keys[corner + 1] = mid[p], t + j
    tails[corner + 2], keys[corner + 2] = mid[prev], d[prev] ^ 1
    middle = block0[f] + 9 + j
    tails[middle], keys[middle] = mid[p], t + (j + 1) % 3
    walk[corner] = f
    walk[middle[j == 0]] = f[j == 0]

    starts = np.flatnonzero(walk != -2)
    built = RotationGraph.from_walks(
        tails,
        keys,
        np.diff(starts, append=total),
        keep=n,
        frontier=np.concatenate([np.fromiter(g.frontier, np.int64), mid[o]]),
    )
    return built.graph, walk_refinement_map(g, built, walk[starts])


def walk_refinement_map(
    g: RotationGraph, built: WalkBuild, walk_owner: np.ndarray
) -> RefinementMap:
    """Cover structure of a subdivision of ``g`` built by ``from_walks``.

    The subdivision's vertex keys must be ``v`` for vertex ``v`` of ``g``,
    ``n + e`` for the midpoint of edge ``e`` and ``n + |E| + f`` for the
    center of face ``f``, with ``keep = n``; the two halves of edge ``e``
    must have the keys of its darts, ``2e`` and ``2e + 1``.
    ``walk_owner[i]`` is the face of ``g`` that walk ``i`` subdivides, or -1
    for a walk that covers no face.
    """
    n, n_edges = g.n_vertices, g.n_edges
    kind = np.searchsorted(np.array([n, n + n_edges]), built.vertex_key, side="right")
    edge_id = np.empty(int(built.edge_key.max()) + 1, dtype=np.int64)
    edge_id[built.edge_key] = np.arange(built.graph.n_edges)
    face_owner = np.empty(len(walk_owner), dtype=np.int64)
    face_owner[built.walk_face] = walk_owner
    return RefinementMap(
        origin_kind=kind.astype(np.int8),
        origin=built.vertex_key - np.array([0, n, n + n_edges])[kind],
        edge_cover=edge_id[: 2 * n_edges].reshape(n_edges, 2),
        face_owner=face_owner,
    )


@dataclass
class RefinementReport:
    is_refinement: bool
    is_semi_bounded: bool
    m_edge: int
    is_bounded: bool
    m_face: int
    violations: list[str] = field(default_factory=list)


def check_refinement(
    g: RotationGraph, g_ref: RotationGraph, rmap: RefinementMap
) -> RefinementReport:
    """Verify the cover structure and measure the boundedness constants.

    The map's arrays must have one entry per refined vertex, original edge
    and refined face, and every id must name a vertex, edge or face that
    exists.  Every edge's cover must be a refined-edge path between its
    ends, which keep their ids.  ``m_edge`` counts all refined vertices on a
    closed original edge (endpoints included; on a broken cover, those
    reached before it breaks); ``m_face`` counts refined vertices on a
    closed original face, where an out-of-range owner counts for none.
    Violations are reported, not raised; a map of the wrong shape gets
    ``m_edge`` and ``m_face`` 0.
    """
    ref_faces = trace_faces(g_ref)
    violations = _shape_violations(g, g_ref, rmap, len(ref_faces))
    if violations:
        return RefinementReport(False, False, 0, False, 0, violations)
    n_faces = len(trace_faces(g))
    kind, origin = rmap.origin_kind, rmap.origin
    bound = np.array([g.n_vertices, g.n_edges, n_faces])[np.clip(kind, VERTEX, FACE)]
    owner_ok = (rmap.face_owner >= -1) & (rmap.face_owner < n_faces)
    # the first out-of-range entry of each array
    violations = [
        f"{name}[{i}] = {ids.flat[i]} out of range"
        for name, ids, bad in [
            ("origin_kind", kind, (kind < VERTEX) | (kind > FACE)),
            ("origin", origin, (origin < 0) | (origin >= bound)),
            ("edge_cover", rmap.edge_cover, ~_cover_in_range(g_ref, rmap)),
            ("face_owner", rmap.face_owner, ~owner_ok),
        ]
        for i in np.flatnonzero(bad.ravel())[:1].tolist()
    ]

    path = _cover_paths(g, g_ref, rmap)
    ends = g.dart_vertex.reshape(-1, 2)
    broken = np.flatnonzero(path[:, -1] != ends[:, 1])
    violations += [
        f"edge {e} cover is not a path from {u} to {v}"
        for e, (u, v) in zip(broken.tolist(), ends[broken].tolist())
    ]
    n_ref = g_ref.n_vertices
    edge_of = np.repeat(np.arange(g.n_edges), path.shape[1])
    m_edge = _most_distinct(edge_of, path.ravel(), n_ref)
    # the vertices of a closed face are those of its refined faces
    owner = np.where(owner_ok, rmap.face_owner, -1)[ref_faces.face_index()]
    m_face = _most_distinct(owner, ref_faces.vertices, n_ref)

    ok = not violations
    return RefinementReport(
        is_refinement=ok,
        is_semi_bounded=ok and m_edge > 0,
        m_edge=m_edge,
        is_bounded=ok and m_face > 0,
        m_face=m_face,
        violations=violations,
    )


def _shape_violations(
    g: RotationGraph, g_ref: RotationGraph, rmap: RefinementMap, n_ref_faces: int
) -> list[str]:
    """The map's arrays whose shape does not fit the two graphs."""
    cover = np.shape(rmap.edge_cover)
    fits = {
        "origin_kind": np.shape(rmap.origin_kind) == (g_ref.n_vertices,),
        "origin": np.shape(rmap.origin) == (g_ref.n_vertices,),
        "edge_cover": len(cover) == 2 and cover[0] == g.n_edges and cover[1] > 0,
        "face_owner": np.shape(rmap.face_owner) == (n_ref_faces,),
    }
    return [
        f"{name} has the wrong shape {np.shape(getattr(rmap, name))}"
        for name, ok in fits.items()
        if not ok
    ]


def _cover_in_range(g_ref: RotationGraph, rmap: RefinementMap) -> np.ndarray:
    """Per entry of ``edge_cover``: whether it names an edge of ``g_ref``."""
    return (rmap.edge_cover >= 0) & (rmap.edge_cover < g_ref.n_edges)


def _most_distinct(group: np.ndarray, item: np.ndarray, size: int) -> int:
    """The most distinct items (below ``size``) in one group; a negative
    group or item counts for none."""
    keep = (group >= 0) & (item >= 0)
    key = np.sort(group[keep] * size + item[keep])
    distinct = key[np.diff(key, prepend=-1) != 0]
    return int(np.bincount(distinct // size).max(initial=0))


def _cover_paths(
    g: RotationGraph, g_ref: RotationGraph, rmap: RefinementMap
) -> np.ndarray:
    """Where each edge's cover stands after each of its refined edges.

    ``path[e, i]`` is the refined vertex reached from the vertex of dart
    ``2e`` after ``i`` edges of row ``e`` of the cover, and -1 from the first
    edge that does not continue the path on, or that is not an edge of
    ``g_ref``; the whole row is -1 when an end of ``e`` does not keep its id
    in the refinement.
    """
    n = g.n_vertices
    kept = (rmap.origin_kind[:n] == VERTEX) & (rmap.origin[:n] == np.arange(n))
    ends = g.dart_vertex.reshape(-1, 2)
    real = _cover_in_range(g_ref, rmap)
    ref_ends = g_ref.dart_vertex.reshape(-1, 2)[np.where(real, rmap.edge_cover, 0)]
    ref_ends[~real] = -1
    at = np.where(kept[ends].all(axis=1), ends[:, 0], -1)
    path = [at]
    for a, b in zip(ref_ends[:, :, 0].T, ref_ends[:, :, 1].T):
        at = np.where(a == at, b, np.where(b == at, a, -1))
        path.append(at)
    return np.stack(path, axis=1)


def _m_edge(g: RotationGraph, g_ref: RotationGraph, rmap: RefinementMap) -> int:
    """``m_edge`` of a refinement; raises on a map ``check_refinement`` rejects."""
    report = check_refinement(g, g_ref, rmap)
    if not report.is_refinement:
        raise RefinementError(f"not a refinement: {report.violations[:3]}")
    return report.m_edge


def coarsen_metric(
    g: RotationGraph,
    g_ref: RotationGraph,
    rmap: RefinementMap,
    m_ref: np.ndarray,
) -> np.ndarray:
    """Push a refinement metric down: m(v) = 2M * max over the half-open star.

    The star at v consists of v itself plus the interior cover vertices of
    every edge at v (far endpoints excluded).  Satisfies
    ``sum m^2 <= 8 M^2 sum m_ref^2`` and, for every original edge [u, v],
    ``sum of m_ref over the closed edge <= (m(u) + m(v)) / 2``.
    """
    m_ref = check_metric(g_ref, m_ref)
    M = _m_edge(g, g_ref, rmap)
    # the interior cover vertices of an edge are those of its path that do
    # not lie on an original vertex
    inner = _cover_paths(g, g_ref, rmap)[:, 1:]
    inner = np.where(rmap.origin_kind[inner] != VERTEX, m_ref[inner], 0.0)
    star = m_ref[: g.n_vertices].copy()
    np.maximum.at(star, g.dart_vertex, np.repeat(inner.max(axis=1), 2))
    return 2.0 * M * star


def refine_metric(
    g: RotationGraph,
    g_ref: RotationGraph,
    rmap: RefinementMap,
    m: np.ndarray,
    K: int,
) -> np.ndarray:
    """Lift a base metric to the refinement, guided by the low-degree set.

    With Z the vertices of degree exceeding K: original vertices in Z keep
    their weight; any other refined vertex on the 1-skeleton gets three times
    the largest base weight among its incident low-degree vertices; vertices
    interior to faces get zero.  Requires g to satisfy p(K) (otherwise some
    skeleton vertex sees only Z and the construction is undefined), and
    satisfies ``sum m_ref^2 <= 9 K M sum m^2``.
    """
    m = check_metric(g, m)
    if not classify(g).is_disk_triangulation:
        raise RefinementError("refine_metric needs a disk triangulation base")
    _m_edge(g, g_ref, rmap)
    low = np.diff(g.rot_offsets) <= K
    low_m = np.where(low, m, -np.inf)
    on_edge = low_m[g.dart_vertex.reshape(-1, 2)].max(axis=1)
    near = low_m.copy()  # largest low-degree weight on each closed star
    np.maximum.at(near, g.dart_vertex, np.repeat(on_edge, 2))

    kind, at = rmap.origin_kind, rmap.origin
    out = np.zeros(g_ref.n_vertices)
    v, e = at[kind == VERTEX], at[kind == EDGE]
    out[kind == VERTEX] = np.where(low[v], 3.0 * near[v], m[v])
    out[kind == EDGE] = 3.0 * on_edge[e]
    stuck = e[on_edge[e] == -np.inf]
    if len(stuck):
        raise RefinementError(
            f"edge {stuck[0]} has both endpoints of degree > {K}; p({K}) fails"
        )
    return out
