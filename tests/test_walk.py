import math

import numpy as np
import pytest

from speiserlab.errors import FrontierError, GraphError
from speiserlab.graph_core import bfs_layers
from speiserlab.lattices import (
    cycle_graph,
    path_graph,
    regular_tree,
    square_ball,
    triangular_ball,
)
from speiserlab.speiser import GrowthSchedule, speiser_ball, tree_replace
from speiserlab.trend import RECURRENT, TRANSIENT, fit_linear
from speiserlab.walk import (
    doyle_test,
    nash_williams_sum,
    resistance_curve,
    upsilon_resistance_curve,
)


def test_series_path():
    g = path_graph(4)
    assert resistance_curve(g, 0, [3]).resistance[0] == pytest.approx(3.0, abs=1e-12)


def test_parallel_edges():
    g = cycle_graph(2)  # two parallel edges
    assert resistance_curve(g, 0, [1]).resistance[0] == pytest.approx(0.5, abs=1e-12)


def test_tree_series_parallel_closed_form():
    g = regular_tree(3, 9)
    for n in (1, 3, 6, 9):
        expect = sum(1.0 / (3 * 2**k) for k in range(n))
        got = resistance_curve(g, 0, [n]).resistance[0]
        assert got == pytest.approx(expect, abs=1e-9)
    # converges within 1% quickly
    curve = resistance_curve(g, 0, list(range(1, 10)))
    rel = [
        (curve.resistance[i] - curve.resistance[i - 1]) / curve.resistance[i]
        for i in range(1, len(curve.resistance))
    ]
    assert any(r < 0.01 for r in rel)


def test_resistance_monotone_and_nash_williams_bound():
    g = square_ball(12)
    curve = resistance_curve(g, 0, [2, 4, 6, 8, 10])
    nw = nash_williams_sum(bfs_layers(g, 0).cut_sizes())
    prev = 0.0
    for n, r in zip(curve.radii, curve.resistance):
        assert r >= prev - 1e-12
        assert r >= nw[n - 1] - 1e-12
        prev = r


def test_z2_log_growth():
    g = square_ball(34)
    ns = [8, 11, 16, 23, 32]
    curve = resistance_curve(g, 0, ns)
    fit = fit_linear(np.log(ns), curve.resistance)
    assert 0.1 <= fit.slope <= 0.3


def test_z2_nash_williams_log_rate():
    g = square_ball(66)
    layers = bfs_layers(g, 0)
    nw = nash_williams_sum(layers.cut_sizes())
    # |E(k)| = 4(2k+1) exactly on the grid
    for k in (1, 5, 20, 50):
        assert layers.cut_sizes()[k] == 4 * (2 * k + 1)
    # growth rate short of and beyond n=8..64 matches (1/8) ln n within 20%
    growth = (nw[63] - nw[7]) / (math.log(64) - math.log(8))
    assert abs(growth - 1 / 8) <= 0.2 / 8


def test_tree_nash_williams_converges():
    g = regular_tree(3, 12)
    layers = bfs_layers(g, 0)
    nw = nash_williams_sum(layers.cut_sizes())
    assert nw[-1] <= sum(1.0 / (3 * 2**k) for k in range(40)) + 1e-9
    assert nw[-1] < 0.67


def test_rayleigh_monotonicity_edge_deletion():
    g = square_ball(6)
    layers = bfs_layers(g, 0)
    base = resistance_curve(g, 0, [5]).resistance[0]
    rng = np.random.default_rng(7)
    from speiserlab.graph_core import RotationGraph
    from speiserlab.walk import _ball_resistances, _edge_arrays

    u, v = _edge_arrays(g)
    dist = np.asarray(layers.dist)
    keep = (dist[u] <= 5) & (dist[v] <= 5)
    keep &= ~((dist[u] == 5) & (dist[v] == 5))
    idx = np.flatnonzero(keep)
    for e in rng.choice(idx, size=5, replace=False):
        mask = np.ones(len(u), dtype=bool)
        mask[e] = False
        curve = _ball_resistances(g.n_vertices, u[mask], v[mask], dist, 0, [5])
        assert curve.resistance[0] >= base - 1e-12


def _queue_distances(g, root):
    """BFS distances from ``root`` by a queue over the neighbor lists."""
    from collections import deque

    rotations, ends = g.rotations, g.dart_vertex.tolist()
    dist = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in (ends[d ^ 1] for d in rotations[v]):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _dense_resistance(g, root, n):
    """Resistance root -> short-circuited S(n) from a dense Laplacian solve."""
    dist = _queue_distances(g, root)
    inner = [v for v in range(g.n_vertices) if dist[v] < n]
    at = {v: i for i, v in enumerate(inner)}
    lap = np.zeros((len(inner), len(inner)))
    for e in range(g.n_edges):
        u, v = g.dart_vertex[2 * e : 2 * e + 2].tolist()
        for a, b in ((u, v), (v, u)):
            if a in at:
                lap[at[a], at[a]] += 1
                if b in at:
                    lap[at[a], at[b]] -= 1
    # unit potential at the root, S(n) grounded: solve for the others
    free = [at[v] for v in inner if v != root]
    pot = np.zeros(len(inner))
    pot[at[root]] = 1.0
    pot[free] = np.linalg.solve(lap[np.ix_(free, free)], -lap[free, at[root]])
    return 1.0 / float(lap[at[root]] @ pot)


def test_resistance_curve_around_a_nonzero_root():
    g = triangular_ball(6, 6)
    curve = resistance_curve(g, 3, [2, 3])
    want = [_dense_resistance(g, 3, n) for n in (2, 3)]
    assert curve.resistance == pytest.approx(want, rel=1e-12)
    assert curve.resistance == pytest.approx([0.2222, 0.2586], abs=5e-5)


def test_frontier_rejected():
    g = square_ball(4)
    with pytest.raises(FrontierError):
        resistance_curve(g, 0, [5])


def test_upsilon_curve_matches_materialized_extension():
    # cross-check the implicit ball against the materialized extension on a
    # frontier-free sphere graph, where both are exact
    from speiserlab.lattices import octahedron
    from speiserlab.speiser import extend_speiser

    g = octahedron()
    n_list = [1, 2, 3, 4]
    implicit = upsilon_resistance_curve(g, 0, n_list, grid_depth=8)
    ups = extend_speiser(g, 8)
    explicit = [resistance_curve(ups, 0, [n]).resistance[0] for n in n_list]
    for a, b in zip(implicit.resistance, explicit):
        assert a == pytest.approx(b, abs=1e-9)
    assert implicit.cut_sizes == bfs_layers(ups, 0).cut_sizes()[:4]


def test_curves_report_their_solve_residuals():
    g = square_ball(6)
    curve = resistance_curve(g, 0, [1, 3, 5])
    assert len(curve.residuals) == 3
    assert all(0.0 <= r <= 1e-10 for r in curve.residuals)
    assert curve.to_dict() == {"radii": [1, 3, 5], "resistance": curve.resistance}
    ups = upsilon_resistance_curve(speiser_ball(2), 0, [1, 2], grid_depth=2)
    assert len(ups.residuals) == 2
    assert all(0.0 <= r <= 1e-10 for r in ups.residuals)


def test_curves_report_the_cut_sizes_of_their_network():
    # R(n) >= NW(n) with both read off the one network each curve solved
    g = triangular_ball(8, 5)
    curve = resistance_curve(g, 0, [4, 2, 3])
    assert curve.cut_sizes == bfs_layers(g, 0).cut_sizes()[:4]
    gamma = tree_replace(speiser_ball(2), GrowthSchedule((3, 9)))
    ups = upsilon_resistance_curve(gamma, 0, [2, 9, 5], grid_depth=4)
    assert len(ups.cut_sizes) == 9
    assert all(type(c) is int and c > 0 for c in curve.cut_sizes + ups.cut_sizes)
    for c in (curve, ups):
        nw = nash_williams_sum(c.cut_sizes)
        assert all(r >= nw[n - 1] - 1e-12 for n, r in zip(c.radii, c.resistance))


def test_resistances_pinned_bit_for_bit():
    # the root current is a float sum over the root's edges in the order the
    # network lists them, so reordering them moves the last bits; recorded
    # under one BLAS thread
    from speiserlab.lattices import octahedron
    from speiserlab.theorem1 import build_gamma

    gamma = build_gamma(2, GrowthSchedule((3, 5)))
    assert [r.hex() for r in doyle_test(gamma, 4, 0, 6).resistance] == [
        "0x1.5555555555555p-3",
        "0x1.af286bca1af28p-3",
        "0x1.e8b6231b492b1p-3",
        "0x1.0c951bcd3e93cp-2",
        "0x1.1fea41e2fe3bap-2",
        "0x1.31defee188be6p-2",
    ]
    # the cut sizes counted on the solved ball are the layering's own
    for g, ns in ((triangular_ball(8, 5), [5, 2, 3]), (octahedron(), [2, 1])):
        cuts = resistance_curve(g, 0, ns).cut_sizes
        assert cuts == bfs_layers(g, 0).cut_sizes()[: max(ns)]


def test_doyle_reads_its_cut_sizes_off_the_solved_ball(monkeypatch):
    from speiserlab import speiser, walk

    gamma = tree_replace(speiser_ball(2), GrowthSchedule((3, 9)))
    exact = speiser.extended_layer_counts(gamma, 0, 10).cut_sizes

    def closed_form(*args, **kwargs):
        raise AssertionError("doyle_test called extended_layer_counts")

    monkeypatch.setattr(speiser, "extended_layer_counts", closed_form)
    monkeypatch.setattr(walk, "extended_layer_counts", closed_form, raising=False)
    report = doyle_test(gamma, grid_depth=10, root=0, n_max=10)
    # within the grid depth the truncated ball has the true extension's cuts
    assert report.cut_sizes == exact
    assert report.nash_williams == nash_williams_sum(exact)


def test_doyle_gamma_recurrent_leaning():
    gamma = tree_replace(speiser_ball(2), GrowthSchedule((3, 9)))
    report = doyle_test(gamma, grid_depth=12, root=0, n_max=12)
    assert report.verdict == RECURRENT
    diffs = np.diff(report.resistance)
    assert (diffs > 0).all()
    nw = report.nash_williams
    assert all(b > a for a, b in zip(nw, nw[1:]))


def test_doyle_triangulation_control_transient():
    g = triangular_ball(8, 7)
    report = doyle_test(g, grid_depth=6, root=0, n_max=6)
    assert any("not bipartite" in f for f in report.flags)
    assert report.verdict == TRANSIENT


def test_triangulation_direct_resistance_converges_fast():
    from speiserlab.trend import first_converged_n

    g = triangular_ball(8, 7)
    curve = resistance_curve(g, 0, list(range(1, 7)))
    n_star = first_converged_n(curve.radii, curve.resistance)
    assert n_star is not None and n_star <= 12


def test_doyle_insufficient_data_inconclusive():
    g = triangular_ball(8, 3)
    report = doyle_test(g, grid_depth=2, root=0, n_max=1)
    assert report.verdict == "inconclusive"


def _reference_upsilon_ball(g, layers, n_max, grid_depth):
    """The per-face, per-column loop that ``_upsilon_ball`` replaced, emitting
    the base edges, then the vertical edges, then the ring edges."""
    from speiserlab.graph_core import trace_faces

    dist_base = layers.dist
    base, vertical, ring = [], [], []
    dist = list(dist_base)
    n_nodes = g.n_vertices
    for e in range(g.n_edges):
        a, b = g.dart_vertex[2 * e : 2 * e + 2].tolist()
        if 0 <= dist_base[a] <= n_max and 0 <= dist_base[b] <= n_max:
            base.append((a, b))
    faces = trace_faces(g)
    bounds = faces.offsets.tolist()
    for f in range(len(faces)):
        vertices = faces.vertices[bounds[f] : bounds[f + 1]].tolist()
        k = len(vertices)
        D = [dist_base[v] for v in vertices]
        heights = [min(grid_depth, n_max - d) if 0 <= d <= n_max else 0 for d in D]
        if not any(h > 0 for h in heights):
            continue
        col = []
        for i in range(k):
            ids = []
            for m in range(1, heights[i] + 1):
                ids.append(n_nodes)
                dist.append(D[i] + m)
                n_nodes += 1
            col.append(ids)
            if ids:
                vertical.append((vertices[i], ids[0]))
                for m in range(len(ids) - 1):
                    vertical.append((ids[m], ids[m + 1]))
        for i in range(k):
            j = (i + 1) % k
            if k == 1:
                break
            for m in range(1, min(heights[i], heights[j]) + 1):
                ring.append((col[i][m - 1], col[j][m - 1]))
    eu, ev = np.asarray(base + vertical + ring).T
    return n_nodes, eu, ev, np.asarray(dist)


@pytest.mark.parametrize(
    "source, n_max, grid_depth",
    [
        ("gamma", 10, None),
        ("gamma", 12, 3),
        ("tri8", 5, None),
        ("tri8", 4, 2),
        ("octahedron", 4, 8),
        ("bigons", 3, None),
    ],
)
def test_upsilon_ball_matches_loop_reference(source, n_max, grid_depth):
    # same nodes, and the same edges in the same order: the root current of
    # _ball_resistances is summed in edge order.  None: grids as deep as the
    # ball.
    from speiserlab.lattices import octahedron
    from speiserlab.theorem1 import build_gamma
    from speiserlab.walk import _upsilon_ball

    g = {
        "gamma": lambda: build_gamma(2, GrowthSchedule((3, 5))),
        "tri8": lambda: triangular_ball(8, 5),
        "octahedron": octahedron,
        "bigons": lambda: cycle_graph(2),
    }[source]()
    if grid_depth is None:
        grid_depth = n_max
    got = _upsilon_ball(g, 0, n_max, grid_depth=grid_depth)
    want = _reference_upsilon_ball(g, bfs_layers(g, 0), n_max, grid_depth=grid_depth)
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


def test_nash_williams_sum_takes_cut_sizes():
    assert nash_williams_sum([1, 2, 4]) == [1.0, 1.5, 1.75]
    with pytest.raises(GraphError, match="empty cut set at radius 1"):
        nash_williams_sum([3, 0, 2])


def _spsolve_resistances(n_nodes, u, v, dist, root, n_list):
    """Per radius, one ``spsolve`` on the Laplacian of the edges inside B(n)."""
    from scipy.sparse import csr_matrix, diags
    from scipy.sparse.linalg import spsolve

    out = []
    for n in n_list:
        inside = (dist[u] <= n) & (dist[v] <= n)
        a, b = u[inside], v[inside]
        adj = csr_matrix((np.ones(len(a)), (a, b)), shape=(n_nodes, n_nodes))
        adj = adj + adj.T
        lap = (diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()
        free = (dist < n) & (np.diff(lap.indptr) > 0)
        free[root] = False
        at = np.flatnonzero(free)
        pot = np.zeros(n_nodes)
        pot[root] = 1.0
        if len(at):
            rhs = -lap[at][:, [root]].toarray().ravel()
            pot[at] = spsolve(lap[at][:, at].tocsc(), rhs)
        out.append(1.0 / float((lap @ pot)[root]))
    return out


@pytest.mark.parametrize(
    "source, n_list, grid_depth",
    [
        ("gamma", [3, 1, 2, 2], 2),
        ("gamma", [8, 1, 5, 3, 5, 7], 2),
        ("tri8", [3, 1, 2, 2], None),
    ],
)
def test_curves_match_per_radius_spsolve(source, n_list, grid_depth):
    # the radii share the largest radius's elimination order; every value
    # must still match its own solve, in the order and with the repeats of
    # n_list.  The gamma radii pass the grid depth of the extension.
    from speiserlab.theorem1 import build_gamma
    from speiserlab.walk import _edge_arrays, _upsilon_ball

    if source == "gamma":
        g = build_gamma(2, GrowthSchedule((3, 5)))
        curve = upsilon_resistance_curve(g, 0, n_list, grid_depth=grid_depth)
        system = _upsilon_ball(g, 0, max(n_list), grid_depth=grid_depth)
    else:
        g = triangular_ball(8, 5)
        curve = resistance_curve(g, 0, n_list)
        system = (g.n_vertices, *_edge_arrays(g), np.asarray(bfs_layers(g, 0).dist))
    want = _spsolve_resistances(*system, 0, n_list)
    assert curve.radii == n_list
    assert curve.resistance == pytest.approx(want, rel=1e-12, abs=0)
    assert len(curve.residuals) == len(n_list)
    assert all(0.0 <= r <= 1e-10 for r in curve.residuals)
    # radius 1 grounds every neighbour of the root: nothing to solve
    assert curve.residuals[n_list.index(1)] == 0.0
    for i, n in enumerate(n_list):
        first = n_list.index(n)
        assert curve.resistance[i] == curve.resistance[first]
        assert curve.residuals[i] == curve.residuals[first]


@pytest.mark.parametrize("n_list", [[-1, 2], [0], [2, 0, 1]])
def test_upsilon_curve_rejects_radii_below_one(monkeypatch, n_list):
    # radius -1 once read 0.1667, and radius 0 failed only inside the solve
    from speiserlab import walk
    from speiserlab.theorem1 import build_gamma

    g = build_gamma(1, GrowthSchedule((3,)))
    monkeypatch.setattr(walk, "_upsilon_ball", None)  # never assembled
    with pytest.raises(GraphError, match="n must be >= 1"):
        upsilon_resistance_curve(g, 0, n_list, grid_depth=4)
    with pytest.raises(GraphError, match="n must be >= 1"):
        resistance_curve(g, 0, n_list)


def test_upsilon_curve_rejects_a_negative_grid_depth(monkeypatch):
    from speiserlab import walk
    from speiserlab.theorem1 import build_gamma

    g = build_gamma(1, GrowthSchedule((3,)))
    assert upsilon_resistance_curve(g, 0, [1, 2], grid_depth=0).radii == [1, 2]
    monkeypatch.setattr(walk, "_upsilon_ball", None)  # never assembled
    with pytest.raises(GraphError, match="grid_depth must be >= 0"):
        upsilon_resistance_curve(g, 0, [1, 2], grid_depth=-1)
    with pytest.raises(GraphError, match="grid_depth must be >= 0"):
        doyle_test(g, grid_depth=-1, root=0, n_max=2)


def test_resistance_radius_past_a_frontier_free_graph_names_the_empty_sphere():
    # the octahedron has depth 2 and no frontier: S(3) is empty, no frontier
    # cuts it off
    from speiserlab.lattices import octahedron

    with pytest.raises(FrontierError, match=r"S\(3\) is empty: radius 3 lies past the depth 2"):
        resistance_curve(octahedron(), 0, [1, 3])
    assert len(resistance_curve(octahedron(), 0, [1, 2]).resistance) == 2
    with pytest.raises(FrontierError, match=r"B\(3\) touches the frontier"):
        resistance_curve(triangular_ball(8, 2), 0, [3])


@pytest.mark.parametrize("grid_depth", [None, 4])
def test_empty_radius_list_gives_an_empty_curve(grid_depth):
    # max([]) once raised a bare ValueError here; None: grids as deep as the
    # (empty) ball
    from speiserlab.theorem1 import build_gamma

    g = build_gamma(1, GrowthSchedule((3,)))
    want = resistance_curve(g, 0, [])
    assert want.radii == want.resistance == want.residuals == want.cut_sizes == []
    if grid_depth is None:
        grid_depth = 0
    assert upsilon_resistance_curve(g, 0, [], grid_depth=grid_depth) == want


@pytest.mark.parametrize("source, empty", [("cycle2", 3), ("octahedron", 4)])
def test_doyle_radii_past_the_extension_raise_before_factoring(monkeypatch, source, empty):
    # grids of depth 1 end one step above the base: the doubled edge's
    # extension ends at distance 2 and the octahedron's at 3.  Radius 6 once
    # died in a bare ZeroDivisionError (doubled edge), or was solved before
    # nash_williams_sum found the empty cut (octahedron).
    from speiserlab import walk
    from speiserlab.lattices import octahedron

    g = cycle_graph(2) if source == "cycle2" else octahedron()
    factored = []
    monkeypatch.setattr(walk, "factor", lambda *args: factored.append(args))
    with pytest.raises(FrontierError, match=rf"S\({empty}\) is empty"):
        doyle_test(g, 1, 0, 6)
    # the first requested radius with an empty sphere is named
    with pytest.raises(FrontierError, match=rf"S\({empty + 1}\) is empty"):
        upsilon_resistance_curve(g, 0, [1, empty + 1, empty], grid_depth=1)
    assert factored == []
    monkeypatch.undo()
    curve = upsilon_resistance_curve(g, 0, list(range(1, empty)), grid_depth=1)
    assert all(math.isfinite(r) and r > 0 for r in curve.resistance)
    assert 0 not in curve.cut_sizes
