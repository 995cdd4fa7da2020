import numpy as np
import pytest

from speiserlab.errors import RefinementError
from speiserlab.graph_core import (
    RotationGraph,
    bfs_layers,
    classify,
    euler_characteristic,
    interior_face_mask,
    trace_faces,
)
from speiserlab.lattices import grid_patch, octahedron, triangular_ball
from speiserlab.refinement import (
    EDGE,
    VERTEX,
    RefinementMap,
    check_metric,
    check_refinement,
    coarsen_metric,
    refine_metric,
    subdivide4,
)
from speiserlab.speiser import (
    GrowthSchedule,
    lambda_triangulation,
    speiser_ball,
    tree_replace,
)


def test_subdivide4_octahedron_counts():
    g = octahedron()
    ref, rmap = subdivide4(g)
    assert ref.n_vertices == 18
    assert ref.n_edges == 48
    faces = trace_faces(ref)
    assert len(faces) == 32
    assert euler_characteristic(ref) == 2
    c = classify(ref)
    assert c.p_of == 6


def test_subdivide4_single_triangle():
    # a triangle and its outer triangle, both interior with no frontier: 4
    # triangles each, on 3 midpoints
    from speiserlab.graph_core import RotationGraph

    g = RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 1)])
    ref, rmap = subdivide4(g)
    assert ref.n_vertices == 6
    assert trace_faces(ref).lengths.tolist() == [3] * 8
    assert check_refinement(g, ref, rmap).m_edge == 3


def test_subdivide4_rejects_non_triangulation():
    from speiserlab.lattices import cube

    with pytest.raises(RefinementError):
        subdivide4(cube())


def test_subdivide4_midpoint_degrees():
    from speiserlab.graph_core import interior_face_mask

    g = triangular_ball(8, 2)
    ref, rmap = subdivide4(g)
    owner = trace_faces(g).face_of()
    inner = interior_face_mask(g)
    checked = 0
    for w, (kind, origin) in enumerate(zip(rmap.origin_kind, rmap.origin)):
        if kind == EDGE:
            e = origin
            if inner[owner[2 * e]] and inner[owner[2 * e + 1]]:
                assert ref.degree(w) == 6
                checked += 1
        elif kind == VERTEX:
            v = origin
            if v not in g.frontier:
                assert ref.degree(w) == g.degree(v)
    assert checked > 0


def _min_rotation(cycle):
    return min(tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle)))


def _grid_with_frontier():
    # vertex 0 on the frontier keeps the two faces at it
    g = grid_patch(3, 2)
    return RotationGraph(g.rot_darts, g.rot_offsets, frontier=[0])


KEPT_FACE_SOURCES = {
    "gamma": lambda: tree_replace(speiser_ball(2), GrowthSchedule((3, 5))),
    "grid": _grid_with_frontier,
}


@pytest.mark.parametrize("rewrite", ["lambda", "subdivide4"])
@pytest.mark.parametrize("source", sorted(KEPT_FACE_SOURCES))
def test_subdivisions_keep_the_faces_they_do_not_split(source, rewrite):
    # subdivide4 splits the triangles of the source's lambda triangulation
    g = KEPT_FACE_SOURCES[source]()
    if rewrite == "lambda":
        ref, rmap = lambda_triangulation(g, with_map=True)
    else:
        g = lambda_triangulation(g)
        ref, rmap = subdivide4(g)
    assert check_refinement(g, ref, rmap).is_refinement
    faces, ref_faces = trace_faces(g), trace_faces(ref)
    mid = np.empty(g.n_edges, dtype=np.int64)
    on_edge = rmap.origin_kind == EDGE
    mid[rmap.origin[on_edge]] = np.flatnonzero(on_edge)

    # each kept face is one refined face: its walk through its midpoints
    kept = np.flatnonzero(~interior_face_mask(g))
    assert len(kept)
    want, kept_mids = [], set()
    for f in kept.tolist():
        at = slice(faces.offsets[f], faces.offsets[f + 1])
        mids = mid[faces.darts[at] >> 1]
        kept_mids.update(mids.tolist())
        walk = np.stack([faces.vertices[at], mids], axis=1).ravel().tolist()
        want.append(_min_rotation(walk))
    got = []
    for rf in np.flatnonzero(rmap.face_owner == -1).tolist():
        at = slice(ref_faces.offsets[rf], ref_faces.offsets[rf + 1])
        got.append(_min_rotation(ref_faces.vertices[at].tolist()))
    assert sorted(got) == sorted(want)
    assert ref.frontier == g.frontier | kept_mids


def test_check_refinement_subdivide4():
    g = octahedron()
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    assert report.is_refinement
    assert report.m_edge == 3  # two endpoints + midpoint
    assert report.m_face == 6  # 3 originals + 3 midpoints


def test_check_refinement_identity():
    g = octahedron()
    rmap = RefinementMap(
        origin_kind=np.full(g.n_vertices, VERTEX, dtype=np.int8),
        origin=np.arange(g.n_vertices),
        edge_cover=np.arange(g.n_edges).reshape(-1, 1),
        face_owner=np.arange(len(trace_faces(g))),
    )
    report = check_refinement(g, g, rmap)
    assert report.is_refinement
    assert report.m_edge == 2


def test_coarsen_metric_single_edge_formula():
    # single edge with one midpoint: m(u) = 6 max(a, b), m(v) = 6 max(b, c)
    from speiserlab.graph_core import RotationGraph

    g = RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 1)])
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    assert report.m_edge == 3
    a, b, c = 0.3, 0.9, 0.1
    mid01 = next(
        w
        for w, (kind, e) in enumerate(zip(rmap.origin_kind, rmap.origin))
        if kind == EDGE and set(g.dart_vertex[2 * e : 2 * e + 2].tolist()) == {0, 1}
    )
    m_ref = np.zeros(ref.n_vertices)
    m_ref[[0, mid01, 1]] = a, b, c
    m = coarsen_metric(g, ref, rmap, m_ref)
    assert m[0] == pytest.approx(6 * max(a, b))
    assert m[1] == pytest.approx(6 * max(b, c))


def test_coarsen_zero_metric():
    g = octahedron()
    ref, rmap = subdivide4(g)
    m = coarsen_metric(g, ref, rmap, np.zeros(ref.n_vertices))
    assert all(w == 0 for w in m)


def _random_metric(rng, g):
    return rng.uniform(0, 1, g.n_vertices)


def test_coarsen_inequalities_random():
    g = triangular_ball(8, 2)
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    M = report.m_edge
    rng = np.random.default_rng(20080)
    for _ in range(100):
        m_ref = _random_metric(rng, ref)
        m = coarsen_metric(g, ref, rmap, m_ref)
        # square-sum inequality
        lhs = sum(w * w for w in m)
        rhs = 8 * M * M * sum(w * w for w in m_ref)
        assert lhs <= rhs + 1e-12
        # edge inequality for every original edge
        for e in range(g.n_edges):
            u, v = g.dart_vertex[2 * e : 2 * e + 2].tolist()
            interior = np.flatnonzero((rmap.origin_kind == EDGE) & (rmap.origin == e))
            total = m_ref[u] + m_ref[v] + sum(m_ref[w] for w in interior)
            assert total <= (m[u] + m[v]) / 2 + 1e-12


def test_refine_metric_zero():
    g = subdivided_patch()
    ref, rmap = subdivide4(g)
    m_ref = refine_metric(g, ref, rmap, np.zeros(g.n_vertices), K=6)
    assert all(w == 0 for w in m_ref)


def subdivided_patch():
    # sub4 of a {3,8} patch satisfies p(6): midpoints have degree 6
    g = triangular_ball(8, 2)
    ref, _ = subdivide4(g)
    return ref


def test_refine_metric_rejects_p_failure():
    # the {3,8} patch itself is 8-regular: with K = 6 every interior vertex is
    # in Z, so edges inside the patch have both endpoints in Z
    g = triangular_ball(8, 3)
    ref, rmap = subdivide4(g)
    with pytest.raises(RefinementError, match="p\\(6\\)"):
        refine_metric(g, ref, rmap, np.ones(g.n_vertices), K=6)


def test_refine_inequality_random():
    g = subdivided_patch()
    assert classify(g).p_of <= 6
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    M = report.m_edge
    K = 6
    rng = np.random.default_rng(31337)
    for _ in range(100):
        m = _random_metric(rng, g)
        m_ref = refine_metric(g, ref, rmap, m, K=K)
        assert sum(w * w for w in m_ref) <= 9 * K * M * sum(w * w for w in m) + 1e-12


def _coarsen_by_loop(g, rmap, m_ref, M):
    # the star of v: v and the midpoint of every edge at v
    out = []
    rotations = g.rotations
    for v in range(g.n_vertices):
        star = [m_ref[v]]
        for d in rotations[v]:
            mid = (rmap.origin_kind == EDGE) & (rmap.origin == d >> 1)
            star.extend(m_ref[mid])
        out.append(2.0 * M * max(star))
    return out


def _refine_by_loop(g, rmap, m, K):
    Z = {v for v in range(g.n_vertices) if g.degree(v) > K}
    rotations, ends = g.rotations, g.dart_vertex.tolist()
    out = []
    for kind, x in zip(rmap.origin_kind.tolist(), rmap.origin.tolist()):
        if kind == VERTEX and x in Z:
            out.append(m[x])
        elif kind == VERTEX:
            star = [x, *(ends[d ^ 1] for d in rotations[x])]
            out.append(3.0 * max(m[u] for u in star if u not in Z))
        elif kind == EDGE:
            out.append(3.0 * max(m[u] for u in ends[2 * x : 2 * x + 2] if u not in Z))
        else:
            out.append(0.0)
    return out


def test_metric_transfers_match_loop_reference():
    # on a base with vertices of degree 8 > K = 6, so both refine branches run
    g = subdivided_patch()
    ref, rmap = subdivide4(g)
    M = check_refinement(g, ref, rmap).m_edge
    rng = np.random.default_rng(2020)
    m_ref = rng.uniform(0, 1, ref.n_vertices)
    m = rng.uniform(0, 1, g.n_vertices)
    coarse = coarsen_metric(g, ref, rmap, m_ref)
    assert coarse.tolist() == _coarsen_by_loop(g, rmap, m_ref, M)
    fine = refine_metric(g, ref, rmap, m, K=6)
    assert fine.tolist() == _refine_by_loop(g, rmap, m, 6)


# Three corruptions of subdivide4(octahedron())'s map, with the violations and
# m_edge that the tuple-keyed implementation reported for the same corruption
# of its map.
def _reverse_row(rmap):
    rmap.edge_cover[3] = rmap.edge_cover[3, ::-1]


def _foreign_edge(rmap):
    rmap.edge_cover[3, 1] = rmap.edge_cover[8, 0]


def _moved_origin(rmap):
    rmap.origin[0] = 1


@pytest.mark.parametrize(
    "corrupt, violations",
    [
        (_reverse_row, ["edge 3 cover is not a path from 2 to 3"]),
        (_foreign_edge, ["edge 3 cover is not a path from 2 to 3"]),
        (
            _moved_origin,
            [
                "edge 0 cover is not a path from 0 to 1",
                "edge 2 cover is not a path from 2 to 0",
                "edge 4 cover is not a path from 3 to 0",
                "edge 6 cover is not a path from 4 to 0",
            ],
        ),
    ],
    ids=["reversed-row", "foreign-edge", "moved-origin"],
)
def test_check_refinement_reports_a_corrupted_map(corrupt, violations):
    g = octahedron()
    ref, rmap = subdivide4(g)
    corrupt(rmap)
    report = check_refinement(g, ref, rmap)
    assert not report.is_refinement
    assert report.violations == violations
    assert report.m_edge == 3
    with pytest.raises(RefinementError, match="not a refinement"):
        coarsen_metric(g, ref, rmap, np.ones(ref.n_vertices))
    with pytest.raises(RefinementError, match="not a refinement"):
        refine_metric(g, ref, rmap, np.ones(g.n_vertices), K=6)


def _wrapped_cover(rmap, ref):
    # negative ids that numpy indexing would wrap back onto the right edges
    rmap.edge_cover -= ref.n_edges


def _far_face_owner(rmap, ref):
    rmap.face_owner += 1000


def _far_edge_origin(rmap, ref):
    rmap.origin[rmap.origin_kind == EDGE] += 1000


def _short_face_owner(rmap, ref):
    rmap.face_owner = rmap.face_owner[:-1]


@pytest.mark.parametrize(
    "corrupt, first",
    [
        (_wrapped_cover, "edge_cover[0] = -48 out of range"),
        (_far_face_owner, "face_owner[0] = 1000 out of range"),
        (_far_edge_origin, "origin[6] = 1000 out of range"),
        (_short_face_owner, "face_owner has the wrong shape (31,)"),
    ],
    ids=["negative-cover", "face-owner", "edge-origin", "short-face-owner"],
)
def test_check_refinement_reports_out_of_range_ids(corrupt, first):
    g = octahedron()
    ref, rmap = subdivide4(g)
    corrupt(rmap, ref)
    report = check_refinement(g, ref, rmap)
    assert not report.is_refinement
    assert report.violations[0] == first
    with pytest.raises(RefinementError, match="not a refinement"):
        coarsen_metric(g, ref, rmap, np.ones(ref.n_vertices))
    with pytest.raises(RefinementError, match="not a refinement"):
        refine_metric(g, ref, rmap, np.ones(g.n_vertices), K=6)


@pytest.mark.parametrize("case", ["wrong-length", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", ["coarsen", "refine", "objective"])
def test_bad_vmetric_rejected(entry, case):
    from speiserlab.vel import metric_objective

    g = subdivided_patch()
    ref, rmap = subdivide4(g)
    m = np.ones((ref if entry == "coarsen" else g).n_vertices)
    if case == "wrong-length":
        m = m[:-1]
    else:
        m[0] = {"negative": -1.0, "nan": np.nan, "inf": np.inf}[case]
    call = {
        "coarsen": lambda: coarsen_metric(g, ref, rmap, m),
        "refine": lambda: refine_metric(g, ref, rmap, m, K=6),
        "objective": lambda: metric_objective(g, {0}, {1}, m),
    }[entry]
    message = "shape" if case == "wrong-length" else "at vertex 0"
    with pytest.raises(RefinementError, match=message):
        call()


def test_check_metric_returns_float64():
    m = check_metric(octahedron(), [0, 1, 2, 3, 4, 5])
    assert m.dtype == np.float64 and m.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
