import hashlib

import numpy as np
import pytest

from speiserlab.errors import ScheduleError
from speiserlab.graph_core import (
    bfs_layers,
    canonical_form,
    classify,
    dual,
    euler_characteristic,
    induced_ball,
    to_json,
    trace_faces,
    two_colored,
    two_coloring,
)
from speiserlab.lattices import cycle_graph, grid_patch, triangular_ball
from speiserlab.speiser import (
    GrowthSchedule,
    build_octagonal_speiser,
    extend_speiser,
    extended_layer_counts,
    lambda_triangulation,
    speiser_ball,
    tree_replace,
)


# -- octagonal base graph ---------------------------------------------------


def _interior(g):
    """The vertices off the frontier, in id order."""
    return [v for v in range(g.n_vertices) if v not in g.frontier]


def test_octagonal_root_sphere():
    psi = build_octagonal_speiser(1)
    layers = bfs_layers(psi, 0)
    assert layers.sphere_sizes()[1] == 3


@pytest.mark.parametrize("depth", range(1, 7))
def test_octagonal_root_is_center_face(depth):
    # build_octagonal_speiser takes dual vertex 0 as the root: it is face 0
    # of the {3,8} ball, at the center vertex 0 and kept by the dual
    tri = triangular_ball(8, depth + 2)
    faces = trace_faces(tri)
    assert 0 in faces.vertices[faces.offsets[0] : faces.offsets[1]]
    assert not faces.touches_frontier[0]


def test_octagonal_depth6():
    psi = build_octagonal_speiser(6)
    layers = bfs_layers(psi, 0)
    assert layers.reliable_depth >= 6
    sizes = layers.sphere_sizes()
    for n in range(1, 7):
        assert sizes[n] <= 3**n
    for v in _interior(psi):
        assert psi.degree(v) == 3
    faces = trace_faces(psi)
    inner = ~faces.touches_frontier
    assert inner.any()
    assert (faces.lengths[inner] == 8).all()
    c = classify(psi)
    assert c.is_bipartite
    assert c.homogeneous_degree == 3
    assert psi.tags[0] == "circle"


def test_two_colored_shares_the_built_arrays_and_caches():
    g = dual(triangular_ball(8, 3))
    faces, layers = trace_faces(g), bfs_layers(g, 0)
    tagged = two_colored(g)
    assert g.tags is None and tagged.tags == two_coloring(g)
    for name in ("rot_darts", "rot_offsets", "dart_vertex", "rot_succ", "frontier"):
        assert getattr(tagged, name) is getattr(g, name)
    assert trace_faces(tagged) is faces and bfs_layers(tagged, 0) is layers
    # a triangulation has odd cycles
    assert two_colored(triangular_ball(6, 2)) is None


def test_octagonal_dual_is_degree8_triangulation():
    psi = build_octagonal_speiser(4)
    d = dual(psi)
    c = classify(d)
    assert c.is_disk_triangulation
    assert c.homogeneous_degree == 8


def test_lambda_refinement_constants_against_dual():
    # the dual of the octagon patch has triangular faces, so its subdivision
    # is a bounded refinement: M_edge = 3 and M_face = 2q + 1 = 7
    from speiserlab.graph_core import dual
    from speiserlab.refinement import check_refinement

    tri = dual(build_octagonal_speiser(3))
    lam, rmap = lambda_triangulation(tri, with_map=True)
    report = check_refinement(tri, lam, rmap)
    assert report.is_refinement
    assert report.m_edge == 3
    assert report.m_face == 7


def test_speiser_ball_trims_to_exact_ball():
    ball = speiser_ball(2)
    layers = bfs_layers(ball, 0)
    assert layers.depth == 2
    assert set(np.flatnonzero(layers.dist == 2).tolist()) <= ball.frontier
    assert len(layers.cut_sizes()) == 2


# -- growth schedules -------------------------------------------------------


def test_schedule_rejects_even():
    with pytest.raises(ScheduleError):
        GrowthSchedule((4,))


def test_schedule_too_short():
    with pytest.raises(ScheduleError):
        tree_replace(speiser_ball(2), GrowthSchedule((3,)))


# -- tree replacement -------------------------------------------------------


def test_tree_replace_identity():
    ball = speiser_ball(2)
    out = tree_replace(ball, GrowthSchedule((1, 1)))
    assert canonical_form(out) == canonical_form(ball)


def test_tree_replace_single_edge_pattern():
    # path of length 1 between two vertices, replaced with l = 5:
    # vertices u, t1..t4, v and multiplicity pattern 1,2,1,2,1
    from speiserlab.lattices import path_graph

    out = tree_replace(path_graph(1), GrowthSchedule((5,)))
    assert out.n_vertices == 6
    assert out.n_edges == 7  # 3 singles + 2 doubles
    # internal vertices have degree 3 except the two endpoints (degree 1)
    degs = sorted(out.degree(v) for v in range(out.n_vertices))
    assert degs == [1, 1, 3, 3, 3, 3]
    # bigons show up as 2-gon faces
    assert sorted(trace_faces(out).lengths.tolist())[:2] == [2, 2]
    assert euler_characteristic(out) == 2


def test_tree_replace_psi_depth2():
    out = tree_replace(speiser_ball(2), GrowthSchedule((3, 5)))
    c = classify(out)
    assert c.is_bipartite
    for v in _interior(out):
        assert out.degree(v) == 3
    lay = bfs_layers(out, 0)
    # distances stretch: S(1..2) have 3 tree vertices each, first originals at 3
    assert lay.sphere_sizes()[1] == 3
    assert lay.sphere_sizes()[3] == 3
    # spacing: one internal vertex per replaced edge at each distance
    for k in range(1, 3):
        assert lay.sphere_sizes()[k] == 3


def test_tree_replace_internal_vertex_spacing():
    out = tree_replace(speiser_ball(1), GrowthSchedule((7,)))
    lay = bfs_layers(out, 0)
    for j in range(1, 7):
        assert lay.sphere_sizes()[j] == 3
    # endpoints keep degree 3 at the originals' new distance
    assert lay.sphere_sizes()[7] == 3


# -- lambda triangulation ---------------------------------------------------


def test_lambda_square_face():
    # one square and its outer square, both interior with no frontier and
    # two non-triangular faces
    g = grid_patch(2, 2)
    assert not g.frontier and trace_faces(g).lengths.tolist() == [4, 4]
    out = lambda_triangulation(g)
    # 4 midpoints and a center per square added to 4 vertices
    assert out.n_vertices == 4 + 4 + 2
    assert trace_faces(out).lengths.tolist() == [3] * 16
    assert euler_characteristic(out) == 2


def test_lambda_bigon():
    g = cycle_graph(2)
    out = lambda_triangulation(g)
    # both faces are bigons -> 2 centers, 2 midpoints, 4+4 triangles
    assert out.n_vertices == 2 + 2 + 2
    faces = trace_faces(out)
    assert sorted(faces.lengths.tolist()) == [3] * 8
    assert euler_characteristic(out) == 2


def test_lambda_on_psi_is_disk_triangulation():
    psi = build_octagonal_speiser(5)
    out = lambda_triangulation(psi)
    c = classify(out)
    assert c.is_disk_triangulation
    # |V_out| = |V| + |E| + |F_interior|
    n_inner = int((~trace_faces(psi).touches_frontier).sum())
    assert n_inner
    assert out.n_vertices == psi.n_vertices + psi.n_edges + n_inner
    # p(2q) for a degree-3 Speiser graph: p <= 6
    assert c.p_of <= 6


# -- extended graph ---------------------------------------------------------


def test_extend_single_square_face():
    # both squares of the frontier-free map are interior, so each gets a
    # cylinder: rings of size 4, two new rings per face -> 16 new vertices
    g = grid_patch(2, 2)
    out = extend_speiser(g, 2)
    assert out.n_vertices == 4 + 16
    assert (trace_faces(out).lengths == 4).all()
    assert euler_characteristic(out) == 2


def test_extend_degree_bound_and_columns():
    from speiserlab.graph_core import interior_face_mask

    gamma = tree_replace(speiser_ball(2), GrowthSchedule((3, 5)))
    ups = extend_speiser(gamma, 3)
    for v in _interior(ups):
        assert ups.degree(v) <= 6
    # base vertices keep their ids and distances under extension
    lay_g = bfs_layers(gamma, 0)
    lay_u = bfs_layers(ups, 0)
    for v in _interior(gamma)[:10]:
        assert lay_u.dist[v] == lay_g.dist[v]
    # a vertex whose three corners all lie on extended faces carries exactly
    # 3 columns: its degree grows from 3 to 6, one vertex per height above it
    psi = build_octagonal_speiser(5)
    ups5 = extend_speiser(psi, 2)
    inner = interior_face_mask(psi)
    owner = trace_faces(psi).face_of()
    rotations = psi.rotations  # rebuilt from the arrays on every access
    checked = 0
    for v in _interior(psi):
        if inner[owner[rotations[v]]].all():
            assert ups5.degree(v) - psi.degree(v) == 3
            checked += 1
    assert checked > 0


def test_extended_layer_counts_match_materialized_sphere_graphs():
    # frontier-free maps: every face gets a grid, so the closed forms and the
    # materialized extension must agree exactly
    from speiserlab.lattices import cube, octahedron

    for g in (octahedron(), cube()):
        k_max = 6
        counts = extended_layer_counts(g, 0, k_max)
        ups = extend_speiser(g, k_max + 1)
        lay_u = bfs_layers(ups, 0)
        for k in range(k_max + 1):
            assert lay_u.sphere_sizes()[k] == counts.sphere_sizes[k], f"sphere {k}"
        for k in range(k_max):
            assert lay_u.cut_sizes()[k] == counts.cut_sizes[k], f"cut {k}"


def test_extended_counts_on_triangulation_control():
    # on a truncation the materialized extension misses the grids of skipped
    # (frontier-touching) faces; agreement holds below their nearest position
    g = triangular_ball(6, 6)
    layers = bfs_layers(g, 0)
    faces = trace_faces(g)
    dist = np.asarray(layers.dist)[faces.vertices]
    face_min = np.minimum.reduceat(dist, faces.offsets[:-1])
    skipped_min = int(face_min[faces.touches_frontier].min())
    k_ok = skipped_min  # spheres complete up to this radius
    assert k_ok >= 3, "control too shallow to be informative"
    counts = extended_layer_counts(g, 0, k_ok)
    ups = extend_speiser(g, k_ok + 1)
    lay_u = bfs_layers(ups, 0)
    for k in range(k_ok + 1):
        assert lay_u.sphere_sizes()[k] == counts.sphere_sizes[k]
    for k in range(k_ok - 1):
        assert lay_u.cut_sizes()[k] == counts.cut_sizes[k]


def _reference_layer_counts(g, dist, k_max, grid_depth=None):
    """Sphere, ball and cut tables by per-vertex, per-edge and per-window
    loops over the distances ``dist`` from the root."""
    gd = grid_depth if grid_depth is not None else k_max + 1
    deg_at = [0] * (k_max + 1)
    base_s = [0] * (k_max + 1)
    for v in range(g.n_vertices):
        d = dist[v]
        if 0 <= d <= k_max:
            deg_at[d] += g.degree(v)
            base_s[d] += 1
    base_cut = [0] * k_max
    for e in range(g.n_edges):
        du, dv = (dist[w] for w in g.dart_vertex[2 * e : 2 * e + 2].tolist())
        if du != dv and min(du, dv) < k_max:
            base_cut[min(du, dv)] += 1

    def windowed(hist, k, lo_off, hi_off):
        lo, hi = max(0, k - lo_off), k - hi_off
        return sum(hist[lo : hi + 1]) if hi >= lo else 0

    sphere = [base_s[k] + windowed(deg_at, k, gd, 1) for k in range(k_max + 1)]
    ball = [sum(sphere[: k + 1]) for k in range(k_max + 1)]
    cut = [
        base_cut[k] + windowed(deg_at, k, gd - 1, 0) + 2 * windowed(base_cut, k, gd, 1)
        for k in range(k_max)
    ]
    return sphere, ball, cut


def test_extended_layer_counts_match_loop_reference_on_gamma():
    from speiserlab import walk
    from speiserlab.graph_core import cut_counts
    from speiserlab.theorem1 import build_gamma
    from speiserlab.walk import upsilon_resistance_curve

    gamma = build_gamma(2, GrowthSchedule((21, 8103)))
    layers = bfs_layers(gamma, 0)
    dist = layers.dist.tolist()
    k_max = min(2000, layers.reliable_depth)
    counts = extended_layer_counts(gamma, 0, k_max)
    got = (counts.sphere_sizes, counts.ball_sizes, counts.cut_sizes)
    assert got == _reference_layer_counts(gamma, dist, k_max)
    assert all(type(x) is int for x in counts.ball_sizes + counts.cut_sizes)
    # grids cut at height 24: the ball the Doyle test solves counts its own
    # cuts, past the grid depth as well
    curve = upsilon_resistance_curve(gamma, 0, [3, 40], grid_depth=24)
    assert curve.cut_sizes == _reference_layer_counts(gamma, dist, 40, 24)[2]
    assert curve.cut_sizes[30:] != counts.cut_sizes[30:40]
    # the same count on that ball out to k_max, without the solves
    _, u, v, ball_dist = walk._upsilon_ball(gamma, 0, k_max, grid_depth=24)
    cuts = cut_counts(ball_dist[u], ball_dist[v], k_max).tolist()
    assert cuts == _reference_layer_counts(gamma, dist, k_max, 24)[2]


def test_speiser_ball_keeps_psi_tags():
    # induced_ball carries psi's tags over; they are the ball's own BFS
    # two-colouring, so the ball needs no recolouring
    for depth in range(1, 7):
        ball = speiser_ball(depth)
        assert ball.tags == two_coloring(ball)
        assert ball.tags[0] == "circle"


@pytest.mark.parametrize("depth", range(1, 6))
def test_octagonal_patch_reliable_depth(depth):
    assert bfs_layers(build_octagonal_speiser(depth), 0).reliable_depth == 2 * depth


# sha256 prefixes of to_json(B(d)) cut from the full patch
# build_octagonal_speiser(d); the d = 7 patch takes seconds to build
FULL_PATCH_BALL_SHA = {
    1: "b4ead68f3208936f",
    2: "ec06d15b50909c24",
    3: "f92a12a175ceda0c",
    4: "0bb5012bf57556b4",
    5: "172c47768277429c",
    6: "8c7fb5753d673b04",
    7: "9b3f48e9fff56c0a",
}


@pytest.mark.parametrize("depth", range(1, 8))
def test_speiser_ball_matches_full_patch_cut(depth):
    ball = speiser_ball(depth)
    text = to_json(ball)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == FULL_PATCH_BALL_SHA[depth]
    if depth <= 5:
        psi = build_octagonal_speiser(depth)
        assert text == to_json(induced_ball(psi, depth))
    assert bfs_layers(ball, 0).reliable_depth == depth
