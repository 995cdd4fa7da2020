import math

import numpy as np
import pytest

from speiserlab.graph_core import RotationGraph, bfs_layers
from speiserlab.lattices import cycle_graph, path_graph, triangular_ball
from speiserlab import vel
from speiserlab.refinement import VMetric
from speiserlab.trend import CP_HYPERBOLIC, HYPERBOLIC, INCONCLUSIVE, PARABOLIC
from speiserlab.vel import (
    SolverOptions,
    _PathGram,
    _path_metric,
    _solve_qp,
    _Subproblem,
    metric_objective,
    solve_vel,
    vel_type_trend,
)


def test_metric_objective_path():
    g = path_graph(2)  # a - x - b
    m = VMetric.constant(g, 1.0)
    out = metric_objective(g, {0}, {2}, m)
    assert out["dist"] == 3
    assert out["area"] == 3
    assert out["ratio"] == pytest.approx(3.0)


def test_metric_objective_zero_metric():
    g = path_graph(2)
    out = metric_objective(g, {0}, {2}, VMetric({}))
    assert out["ratio"] == 0.0


def test_metric_objective_grid():
    from speiserlab.lattices import grid_patch

    g = grid_patch(3, 3)
    layers = bfs_layers(g, 0)
    # find the 3x3 grid's columns by degree pattern: use coordinates via BFS
    # instead: A = one side, B = other side found from the face structure.
    # simpler: vertices at distance 0..2 from a corner from BFS on the patch
    # don't identify columns; use explicit construction below
    # build 3x3 grid with known ids
    rows = 3
    cols = 3
    import itertools

    # grid_patch ids are assigned by face traversal; recover coordinates by
    # checking adjacency structure is overkill here, so rebuild explicitly:
    from speiserlab.graph_core import RotationGraph

    def vid(i, j):
        return j * cols + i

    incidence = []
    eid = {}
    for j in range(rows):
        for i in range(cols):
            rot = []
            for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < cols and 0 <= nj < rows:
                    key = tuple(sorted([(i, j), (ni, nj)]))
                    if key not in eid:
                        eid[key] = len(eid)
                    rot.append(eid[key])
            incidence.append(rot)
    g = RotationGraph.from_rotations(incidence)
    A = {vid(0, j) for j in range(rows)}
    B = {vid(2, j) for j in range(rows)}
    out = metric_objective(g, A, B, VMetric.constant(g, 1.0))
    assert out["dist"] == 3
    assert out["area"] == 9
    assert out["ratio"] == pytest.approx(1.0)


def _brute_force_ratio_path3():
    # metric grid over {0,...,64}/64 for the 3 vertices of a - x - b
    v = np.arange(65) / 64.0
    a, x, b = np.meshgrid(v, v, v, indexing="ij")
    dist = a + x + b
    area = a * a + x * x + b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(area > 0, dist * dist / area, 0.0)
    return float(ratio.max())


def _brute_force_ratio_cycle4():
    # vertices a, x1, b, x2 on a 4-cycle; dist = a + b + min(x1, x2)
    v = np.arange(65) / 64.0
    best = 0.0
    for a in v:
        x1, b, x2 = np.meshgrid(v, v, v, indexing="ij")
        dist = a + b + np.minimum(x1, x2)
        area = a * a + b * b + x1 * x1 + x2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(area > 0, dist * dist / area, 0.0)
        best = max(best, float(ratio.max()))
    return best


def test_solver_single_internal_vertex_vs_brute_force():
    oracle = _brute_force_ratio_path3()
    assert oracle == pytest.approx(3.0, abs=1e-12)  # exact on this grid
    g = path_graph(2)
    est = solve_vel(g, {0}, {2})
    assert est.converged
    assert est.lower >= oracle - 1e-2
    assert est.lower <= est.upper
    assert est.upper == pytest.approx(3.0)
    # recomputing the objective on the stored metric reproduces `lower`
    out = metric_objective(g, {0}, {2}, est.metric)
    assert out["ratio"] == pytest.approx(est.lower, rel=1e-9)


def test_solver_two_paths_vs_brute_force():
    oracle = _brute_force_ratio_cycle4()
    assert oracle == pytest.approx(2.5, abs=1e-12)
    g = cycle_graph(4)
    est = solve_vel(g, {0}, {2})
    assert est.lower >= oracle - 1e-2
    assert est.lower <= 2.5 + 1e-6
    # two paths is strictly easier than one
    assert est.lower < 3.0


def test_solver_disconnected_support():
    g = path_graph(4)
    est = solve_vel(g, {0}, {4}, support={0, 1, 4})
    assert math.isinf(est.lower) and math.isinf(est.upper)


def test_annulus_monotonicity():
    g = triangular_ball(6, 5)
    layers = bfs_layers(g, 0)
    support = [v for v in g.vertices() if 1 <= layers.dist[v] <= 2]
    est = solve_vel(g, set(layers.spheres[1]), set(layers.spheres[2]), support=support)
    # the same metric certifies at least as much against the farther sphere
    obj_near = metric_objective(g, set(layers.spheres[1]), set(layers.spheres[2]), est.metric)
    obj_far = metric_objective(g, set(layers.spheres[1]), set(layers.spheres[3]), est.metric)
    assert obj_far["dist"] >= obj_near["dist"] - 1e-12
    assert obj_far["ratio"] >= obj_near["ratio"] - 1e-12


def test_serial_rule():
    g = triangular_ball(6, 5)
    layers = bfs_layers(g, 0)

    def annulus(ni, no):
        support = [v for v in g.vertices() if ni <= layers.dist[v] <= no]
        return solve_vel(
            g, set(layers.spheres[ni]), set(layers.spheres[no]), support=support
        )

    inner = annulus(1, 2)
    outer = annulus(3, 4)
    union = annulus(1, 4)
    assert union.lower >= inner.lower + outer.lower - 1e-6


def test_trend_hex_parabolic():
    g = triangular_ball(6, 17)
    radii = [(2, 4), (4, 8), (6, 12), (8, 16)]
    report = vel_type_trend(g, 0, radii)
    assert report.verdict == PARABOLIC
    # cross-check against the 1/|S(k)| profile metric: the profile certifies
    # an independent lower bound, so it must stay below the solver's upper
    # bound, and a converged solver must dominate it
    layers = bfs_layers(g, 0)
    for (ni, no), est in zip(report.annuli, report.estimates):
        assert est.lower > 0
        profile = VMetric(
            {
                v: 1.0 / len(layers.spheres[layers.dist[v]])
                for v in g.vertices()
                if ni <= layers.dist[v] <= no
            }
        )
        obj = metric_objective(g, set(layers.spheres[ni]), set(layers.spheres[no]), profile)
        assert obj["ratio"] <= est.upper + 1e-9
        if est.converged:
            assert est.lower >= obj["ratio"] - 1e-6


def test_trend_hyperbolic():
    g = triangular_ball(8, 7)
    radii = [(1, 2), (2, 4), (3, 6)]
    report = vel_type_trend(g, 0, radii)
    assert report.verdict == HYPERBOLIC
    lows = [e.lower for e in report.estimates]
    assert lows[0] > lows[1] > lows[2]


def test_trend_single_annulus_inconclusive():
    g = triangular_ball(6, 5)
    report = vel_type_trend(g, 0, [(1, 2)])
    assert report.verdict == INCONCLUSIVE


def test_trend_skips_frontier_annuli():
    g = triangular_ball(6, 4)
    report = vel_type_trend(g, 0, [(1, 2), (2, 8)])
    assert (2, 8) in report.skipped


def _annulus(g, ni, no):
    layers = bfs_layers(g, 0)
    support = [v for v in g.vertices() if ni <= layers.dist[v] <= no]
    return set(layers.spheres[ni]), set(layers.spheres[no]), support


def test_incremental_gram_matches_brute_force():
    rng = np.random.default_rng(7)
    n = 40
    store = _PathGram(n, capacity=25)
    for _ in range(25):
        path = rng.choice(n, size=int(rng.integers(1, 12)), replace=False)
        store.add(path)
        P = np.zeros((len(store.paths), n))
        for i, p in enumerate(store.paths):
            P[i, p] = 1.0
        assert np.array_equal(store.block, P @ P.T)


def test_warm_started_qp_matches_cold_start():
    g = triangular_ball(8, 5)
    A, B, support = _annulus(g, 1, 2)
    sub = _Subproblem(g, A, B, support=support)
    opts = SolverOptions()
    store = _PathGram(sub.n, opts.max_paths)
    lam = np.zeros(0)
    m = np.zeros(sub.n)
    for _ in range(opts.max_paths):
        length, path = sub.shortest_path(m)
        if length >= 1.0 - opts.tol:
            break
        store.add(path)
        k = len(store.paths)
        lam, exact = _solve_qp(store.block, np.append(lam > 0, True), opts)
        cold, cold_exact = _solve_qp(store.block, np.ones(k, dtype=bool), opts)
        assert exact and cold_exact
        m = _path_metric(store.paths, lam, sub.n)
        m_cold = _path_metric(store.paths, cold, sub.n)
        assert np.max(np.abs(m - m_cold)) <= 1e-12
        # KKT: dual feasibility, primal feasibility, complementary slackness
        lengths = np.array([m[p].sum() for p in store.paths])
        assert lam.min() >= 0.0
        assert lengths.min() >= 1.0 - 1e-9
        assert np.max(lam * (lengths - 1.0)) <= 1e-9
    else:
        pytest.fail("cutting-plane loop did not converge")


def _reference_family(sub):
    """Level-by-level Python BFS: the family the C search must reproduce."""
    nbrs = [[] for _ in range(sub.n)]
    for v, w in sorted(zip(sub.rows.tolist(), sub.cols.tolist())):
        if v < sub.n and (not nbrs[v] or nbrs[v][-1] != w):
            nbrs[v].append(w)
    alive = [True] * sub.n
    family = []
    while True:
        pred = {a: None for a in sub.A if alive[a]}
        frontier, hit = list(pred), None
        while frontier and hit is None:
            nxt = []
            for v in frontier:
                if sub.b_mask[v]:
                    hit = v
                    break
                for w in nbrs[v]:
                    if alive[w] and w not in pred:
                        pred[w] = v
                        nxt.append(w)
            frontier = nxt
        if hit is None:
            return family
        path = []
        while hit is not None:
            path.append(hit)
            hit = pred[hit]
        family.append(path[::-1])
        for v in path:
            alive[v] = False


@pytest.mark.parametrize("q, depth, ni, no", [(8, 5, 1, 2), (8, 5, 2, 4), (6, 6, 1, 4)])
def test_disjoint_path_family_is_disjoint_and_maximal(q, depth, ni, no):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    g = triangular_ball(q, depth)
    A, B, support = _annulus(g, ni, no)
    sub = _Subproblem(g, A, B, support=support)
    family = sub.disjoint_path_family()
    assert family
    assert [p.tolist() for p in family] == _reference_family(sub)
    used = np.concatenate(family)
    assert len(set(used.tolist())) == len(used)
    edges = set(zip(sub.rows.tolist(), sub.cols.tolist()))
    a_set, b_set = set(sub.A), set(sub.B)
    for path in family:
        assert path[0] in a_set and path[-1] in b_set
        assert not a_set & set(path[1:].tolist())
        assert not b_set & set(path[:-1].tolist())
        assert all((int(v), int(w)) in edges for v, w in zip(path, path[1:]))
    # maximal: no A-B path is left among the vertices the family leaves alive
    alive = np.ones(sub.n + 1, dtype=bool)
    alive[used] = False
    keep = alive[sub.rows] & alive[sub.cols]
    adj = csr_matrix(
        (np.ones(int(keep.sum())), (sub.rows[keep], sub.cols[keep])),
        shape=(sub.n + 1, sub.n + 1),
    )
    reached = breadth_first_order(adj, sub.src, directed=True, return_predecessors=False)
    assert not sub.b_mask[reached].any()


def test_pinned_brackets_triangular_ball_8_5():
    # values of the cold-start solver with a pure-Python BFS; the incremental
    # solver must run the same rounds and reproduce them exactly
    g = triangular_ball(8, 5)
    report = vel_type_trend(g, 0, [(1, 2), (2, 4)])
    got = [(e.lower, e.upper, e.iterations) for e in report.estimates]
    assert got == [
        (0.15624999999999994, 0.25, {"outer": 40, "n_constraints": 39}),
        (0.02782985029413592, 0.09375, {"outer": 200, "n_constraints": 200}),
    ]


def test_doubled_edge_costs_its_endpoint_once():
    # vertex 1 and vertex 2 are joined by two parallel edges; a path through
    # either copy visits three unit-weight vertices, so VEL is 3^2 / 3 = 3
    g = RotationGraph.from_rotations([[0], [0, 1, 2], [2, 1]])
    sub = _Subproblem(g, {0}, {2})
    length, path = sub.shortest_path(np.ones(3))
    assert length == 3.0
    assert path.tolist() == [0, 1, 2]
    est = solve_vel(g, {0}, {2})
    assert (est.lower, est.upper) == (3.0, 3.0)


def test_qp_reports_exhaustion():
    # paths {0,1}, {1,2}, {0,1,2}: the cold start's third multiplier is -1,
    # so the exact solve needs a drop after its first Gram solve
    store = _PathGram(3, capacity=3)
    for p in ([0, 1], [1, 2], [0, 1, 2]):
        store.add(np.asarray(p))
    cold = np.ones(3, dtype=bool)
    lam, exact = _solve_qp(store.block, cold, SolverOptions())
    assert exact
    assert np.allclose(_path_metric(store.paths, lam, 3), [1 / 3, 2 / 3, 1 / 3])
    _, exact = _solve_qp(store.block, cold, SolverOptions(qp_iterations=1))
    assert not exact


def test_qp_exhaustion_marks_unconverged():
    g = triangular_ball(8, 5)
    A, B, support = _annulus(g, 1, 2)
    assert solve_vel(g, A, B, support=support).converged
    est = solve_vel(g, A, B, opts=SolverOptions(qp_iterations=1), support=support)
    assert est.converged is False
    assert est.lower <= est.upper


def test_inexact_qp_round_marks_unconverged(monkeypatch):
    g = triangular_ball(8, 5)
    A, B, support = _annulus(g, 1, 2)
    exact = solve_vel(g, A, B, support=support)
    real = vel._solve_qp
    monkeypatch.setattr(vel, "_solve_qp", lambda *a: (real(*a)[0], False))
    est = solve_vel(g, A, B, support=support)
    assert (est.lower, est.upper) == (exact.lower, exact.upper)
    assert est.converged is False
