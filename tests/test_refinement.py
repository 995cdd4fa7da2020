import numpy as np
import pytest

from speiserlab.errors import RefinementError
from speiserlab.graph_core import (
    bfs_layers,
    classify,
    euler_characteristic,
    trace_faces,
)
from speiserlab.lattices import octahedron, triangular_ball
from speiserlab.refinement import (
    RefinementMap,
    VMetric,
    check_refinement,
    coarsen_metric,
    refine_metric,
    subdivide4,
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
    # one triangle with designated outer face: 4 triangles, 3 midpoints
    from speiserlab.graph_core import RotationGraph

    g = RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 1)])
    ref, rmap = subdivide4(g, outer_face=1)
    assert ref.n_vertices == 6
    assert (trace_faces(ref).lengths == 3).sum() == 4


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
    for w, origin in rmap.vertex_origin.items():
        if origin[0] == "edge":
            e = origin[1]
            if inner[owner[2 * e]] and inner[owner[2 * e + 1]]:
                assert ref.degree(w) == 6
                checked += 1
        elif origin[0] == "vertex":
            v = origin[1]
            if v not in g.frontier:
                assert ref.degree(w) == g.degree(v)
    assert checked > 0


def test_check_refinement_subdivide4():
    g = octahedron()
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    assert report.is_refinement
    assert report.m_edge == 3  # two endpoints + midpoint
    assert report.m_face == 6  # 3 originals + 3 midpoints
    assert report.is_semi_bounded and report.is_bounded


def test_check_refinement_identity():
    g = octahedron()
    rmap = RefinementMap.identity(g)
    report = check_refinement(g, g, rmap)
    assert report.is_refinement
    assert report.m_edge == 2


def test_coarsen_metric_single_edge_formula():
    # single edge with one midpoint: m(u) = 6 max(a, b), m(v) = 6 max(b, c)
    from speiserlab.graph_core import RotationGraph

    g = RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 1)])
    ref, rmap = subdivide4(g, outer_face=1)
    report = check_refinement(g, ref, rmap)
    assert report.m_edge == 3
    a, b, c = 0.3, 0.9, 0.1
    mid01 = next(
        w
        for w, org in rmap.vertex_origin.items()
        if org[0] == "edge" and set(g.edge_ends(org[1])) == {0, 1}
    )
    m_ref = VMetric({0: a, mid01: b, 1: c})
    m = coarsen_metric(g, ref, rmap, m_ref)
    assert m[0] == pytest.approx(6 * max(a, b))
    assert m[1] == pytest.approx(6 * max(b, c))


def test_coarsen_zero_metric():
    g = octahedron()
    ref, rmap = subdivide4(g)
    m = coarsen_metric(g, ref, rmap, VMetric({}))
    assert all(w == 0 for w in m.weights.values())


def _random_metric(rng, ids):
    return VMetric({int(v): float(rng.uniform(0, 1)) for v in ids})


def test_coarsen_inequalities_random():
    g = triangular_ball(8, 2)
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    M = report.m_edge
    rng = np.random.default_rng(20080)
    for _ in range(100):
        m_ref = _random_metric(rng, ref.vertices())
        m = coarsen_metric(g, ref, rmap, m_ref)
        # square-sum inequality
        lhs = sum(w * w for w in m.weights.values())
        rhs = 8 * M * M * m_ref.area()
        assert lhs <= rhs + 1e-12
        # edge inequality for every original edge
        for e in g.edges():
            u, v = g.edge_ends(e)
            from speiserlab.refinement import _edge_interior_vertices

            interior = _edge_interior_vertices(ref, rmap, e, u, v)
            total = m_ref[u] + m_ref[v] + sum(m_ref[w] for w in interior)
            assert total <= (m[u] + m[v]) / 2 + 1e-12


def test_refine_metric_zero():
    g = subdivided_patch()
    ref, rmap = subdivide4(g)
    m_ref = refine_metric(g, ref, rmap, VMetric({}), K=6)
    assert all(w == 0 for w in m_ref.weights.values())


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
        refine_metric(g, ref, rmap, VMetric.constant(g), K=6)


def test_refine_inequality_random():
    g = subdivided_patch()
    assert classify(g).p_of <= 6
    ref, rmap = subdivide4(g)
    report = check_refinement(g, ref, rmap)
    M = report.m_edge
    K = 6
    rng = np.random.default_rng(31337)
    for _ in range(100):
        m = _random_metric(rng, g.vertices())
        m_ref = refine_metric(g, ref, rmap, m, K=K)
        assert m_ref.area() <= 9 * K * M * m.area() + 1e-12


def test_vmetric_json_round_trip():
    m = VMetric({0: 0.5, 3: 1.25})
    assert VMetric.from_json(m.to_json()).weights == m.weights


def test_vmetric_rejects_negative():
    with pytest.raises(RefinementError):
        VMetric({0: -1.0})
