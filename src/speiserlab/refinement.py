"""Midpoint subdivision, refinement-relation checking, and the two v-metric
transfer constructions between a graph and its refinement.

``subdivide4`` splits every interior triangle into four by connecting edge
midpoints; the refined vertex set is the disjoint union of the original
vertices and edges.  ``coarsen_metric`` pushes a metric from the refinement
down to the base, ``refine_metric`` lifts one up; both come with exact
square-sum inequalities that the tests enforce on every instance.
``walk_refinement_map`` reads the cover structure of a subdivision (this one
or ``speiser.lambda_triangulation``) off the keys of its face walks.
"""

from __future__ import annotations

import json
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


@dataclass
class VMetric:
    """Nonnegative weight per vertex."""

    weights: dict[int, float]

    def __post_init__(self):
        for v, w in self.weights.items():
            if w < 0:
                raise RefinementError(f"negative weight {w} at vertex {v}")

    def __getitem__(self, v: int) -> float:
        return self.weights.get(v, 0.0)

    def area(self) -> float:
        return sum(w * w for w in self.weights.values())

    def to_json(self) -> str:
        return json.dumps(
            {str(v): w for v, w in sorted(self.weights.items())}, sort_keys=True
        )

    @classmethod
    def from_json(cls, s: str) -> "VMetric":
        return cls({int(k): float(v) for k, v in json.loads(s).items()})

    @classmethod
    def constant(cls, g: RotationGraph, value: float = 1.0) -> "VMetric":
        return cls({v: value for v in g.vertices()})


@dataclass
class RefinementMap:
    """How a refined graph covers the original.

    ``vertex_origin`` maps each refined vertex to ``("vertex", v)``,
    ``("edge", e)`` or ``("face", f)`` of the original; ``edge_cover`` maps
    each original edge to the ordered path of refined edges along it;
    ``face_cover`` maps each original interior face to its refined faces.
    """

    vertex_origin: dict[int, tuple[str, int]]
    edge_cover: dict[int, list[int]]
    face_cover: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def identity(cls, g: RotationGraph) -> "RefinementMap":
        return cls(
            vertex_origin={v: ("vertex", v) for v in g.vertices()},
            edge_cover={e: [e] for e in g.edges()},
            face_cover={f: [f] for f in range(len(trace_faces(g)))},
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
    return built.graph, walk_refinement_map(g, built, tails, walk[starts])


def walk_refinement_map(
    g: RotationGraph, built: WalkBuild, tails: np.ndarray, walk_owner: np.ndarray
) -> RefinementMap:
    """Cover structure of a subdivision of ``g`` built by ``from_walks``.

    The subdivision's vertex keys must be ``v`` for vertex ``v`` of ``g``,
    ``n + e`` for the midpoint of edge ``e`` and ``n + |E| + f`` for the
    center of face ``f``, with ``keep = n``; the two halves of edge ``e``
    must have the keys of its darts, ``2e`` and ``2e + 1``.
    ``walk_owner[i]`` is the face of ``g`` that walk ``i`` subdivides, or -1
    for a walk that covers no face.  ``vertex_origin`` lists the vertices in
    order of first appearance in ``tails``, ``face_cover`` the faces in
    order of their first refined face.
    """
    n, n_edges = g.n_vertices, g.n_edges
    out = built.graph
    vertex_id = np.empty(int(built.vertex_key.max()) + 1, dtype=np.int64)
    vertex_id[built.vertex_key] = np.arange(out.n_vertices)
    _, first = np.unique(tails, return_index=True)
    keys = tails[np.sort(first)]
    kind = np.searchsorted(np.array([n, n + n_edges]), keys, side="right")
    index = keys - np.array([0, n, n + n_edges])[kind]
    names = ("vertex", "edge", "face")
    vertex_origin = {
        v: (names[c], x)
        for v, c, x in zip(vertex_id[keys].tolist(), kind.tolist(), index.tolist())
    }
    edge_id = np.empty(int(built.edge_key.max()) + 1, dtype=np.int64)
    edge_id[built.edge_key] = np.arange(out.n_edges)
    edge_cover = dict(enumerate(edge_id[: 2 * n_edges].reshape(n_edges, 2).tolist()))
    face_cover: dict[int, list[int]] = {}
    covering = np.flatnonzero(walk_owner >= 0)
    order = np.argsort(built.walk_face[covering])
    for rf, f in zip(
        built.walk_face[covering][order].tolist(), walk_owner[covering][order].tolist()
    ):
        face_cover.setdefault(f, []).append(rf)
    return RefinementMap(
        vertex_origin=vertex_origin, edge_cover=edge_cover, face_cover=face_cover
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

    ``m_edge`` counts all refined vertices on a closed original edge
    (endpoints included); ``m_face`` counts refined vertices on a closed
    original face.  Violations are reported, not raised.
    """
    violations = []
    m_edge = 0
    ends, ref_ends = g.dart_vertex.tolist(), g_ref.dart_vertex.tolist()
    for e in g.edges():
        u, v = ends[2 * e], ends[2 * e + 1]
        cover = rmap.edge_cover.get(e)
        if not cover:
            violations.append(f"edge {e} has no cover")
            continue
        chain_ok, n_vertices = _check_chain(ref_ends, cover, rmap, u, v)
        if not chain_ok:
            violations.append(f"edge {e} cover is not a path from {u} to {v}")
        m_edge = max(m_edge, n_vertices)

    m_face = 0
    seen_refined = set()
    ref_faces = trace_faces(g_ref)
    face_vertices = ref_faces.vertices.tolist()
    bounds = ref_faces.offsets.tolist()
    for f, cover in rmap.face_cover.items():
        verts = set()
        for rf in cover:
            if rf in seen_refined:
                violations.append(f"refined face {rf} covers two faces")
            seen_refined.add(rf)
            verts.update(face_vertices[bounds[rf] : bounds[rf + 1]])
        # vertices of the closed face: everything on its refined faces
        m_face = max(m_face, len(verts))

    ok = not violations
    return RefinementReport(
        is_refinement=ok,
        is_semi_bounded=ok and m_edge > 0,
        m_edge=m_edge,
        is_bounded=ok and m_face > 0,
        m_face=m_face,
        violations=violations,
    )


def _check_chain(ref_ends, cover, rmap, u, v):
    """cover must be a refined-edge path from u to v (``ref_ends``: g_ref's ends)."""
    u_id = _refined_id_of_vertex(rmap, u)
    v_id = _refined_id_of_vertex(rmap, v)
    if u_id is None or v_id is None:
        return False, 0
    at = u_id
    seen = {at}
    for e in cover:
        a, b = ref_ends[2 * e], ref_ends[2 * e + 1]
        if a == at:
            at = b
        elif b == at:
            at = a
        else:
            return False, len(seen)
        seen.add(at)
    return at == v_id, len(seen)


def _refined_id_of_vertex(rmap: RefinementMap, v: int) -> int | None:
    # original vertices keep their ids in our constructions; fall back to scan
    origin = rmap.vertex_origin.get(v)
    if origin == ("vertex", v):
        return v
    for nid, org in rmap.vertex_origin.items():
        if org == ("vertex", v):
            return nid
    return None


def _edge_interior_vertices(
    g_ref: RotationGraph, rmap: RefinementMap, e: int, u: int, v: int
) -> list[int]:
    """Refined vertices strictly inside the closed edge e = [u, v]."""
    out = []
    at = _refined_id_of_vertex(rmap, u)
    for re in rmap.edge_cover[e]:
        a, b = g_ref.edge_ends(re)
        at = b if a == at else a
        if rmap.vertex_origin.get(at, ("",))[0] != "vertex":
            out.append(at)
    return out


def coarsen_metric(
    g: RotationGraph,
    g_ref: RotationGraph,
    rmap: RefinementMap,
    m_ref: VMetric,
) -> VMetric:
    """Push a refinement metric down: m(v) = 2M * max over the half-open star.

    The star at v consists of v itself plus the interior cover vertices of
    every edge at v (far endpoints excluded).  Satisfies
    ``sum m^2 <= 8 M^2 sum m_ref^2`` and, for every original edge [u, v],
    ``sum of m_ref over the closed edge <= (m(u) + m(v)) / 2``.
    """
    report = check_refinement(g, g_ref, rmap)
    if not report.is_refinement:
        raise RefinementError(f"not a refinement: {report.violations[:3]}")
    M = report.m_edge
    vertex = g.dart_vertex.tolist()
    weights = {}
    for v in g.vertices():
        star = [_refined_id_of_vertex(rmap, v)]
        for d in g.rotation(v):
            star.extend(_edge_interior_vertices(g_ref, rmap, d >> 1, v, vertex[d ^ 1]))
        weights[v] = 2.0 * M * max(m_ref[x] for x in star)
    return VMetric(weights)


def refine_metric(
    g: RotationGraph,
    g_ref: RotationGraph,
    rmap: RefinementMap,
    m: VMetric,
    K: int,
) -> VMetric:
    """Lift a base metric to the refinement, guided by the low-degree set.

    With Z the vertices of degree exceeding K: original vertices in Z keep
    their weight; any other refined vertex on the 1-skeleton gets three times
    the largest base weight among its incident low-degree vertices; vertices
    interior to faces get zero.  Requires g to satisfy p(K) (otherwise some
    skeleton vertex sees only Z and the construction is undefined), and
    satisfies ``sum m_ref^2 <= 9 K M sum m^2``.
    """
    cls = classify(g)
    if not cls.is_disk_triangulation:
        raise RefinementError("refine_metric needs a disk triangulation base")
    report = check_refinement(g, g_ref, rmap)
    if not report.is_refinement:
        raise RefinementError(f"not a refinement: {report.violations[:3]}")
    Z = set(np.flatnonzero(np.diff(g.rot_offsets) > K).tolist())
    vertex = g.dart_vertex.tolist()

    weights = {}
    for w_id, origin in rmap.vertex_origin.items():
        kind, ref = origin
        if kind == "vertex":
            v = ref
            if v in Z:
                weights[w_id] = m[v]
            else:
                pool = [x for x in [v, *g.neighbors(v)] if x not in Z]
                weights[w_id] = 3.0 * max(m[x] for x in pool)
        elif kind == "edge":
            pool = [x for x in vertex[2 * ref : 2 * ref + 2] if x not in Z]
            if not pool:
                raise RefinementError(
                    f"edge {ref} has both endpoints of degree > {K}; p({K}) fails"
                )
            weights[w_id] = 3.0 * max(m[x] for x in pool)
        else:
            weights[w_id] = 0.0
    return VMetric(weights)
