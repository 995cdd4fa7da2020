import cmath
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from speiserlab import packing
from speiserlab.errors import SolverError
from speiserlab.graph_core import bfs_layers, induced_ball
from speiserlab.lattices import hex_flower, triangular_ball
from speiserlab.packing import (
    ANGLE_TOL,
    CirclePacking,
    EUCLIDEAN,
    MAXIMAL,
    inscribed_collection,
    pack_disk,
    packing_to_svg,
    ratio_trend,
    verify_packing,
)
from speiserlab.trend import CP_HYPERBOLIC, CP_PARABOLIC


@pytest.fixture(scope="module")
def maximal_tri8_3():
    return pack_disk(triangular_ball(8, 3), boundary=MAXIMAL, layout=False)


def test_hex_flower_interior_radius_one():
    p = pack_disk(hex_flower(), boundary=EUCLIDEAN)
    assert p.radii[0] == pytest.approx(1.0, abs=1e-8)
    check = verify_packing(p)
    assert check.max_angle_residual < 1e-10
    assert check.max_tangency_error < 1e-7


def _two_ring_oracle() -> float:
    # interior radius r of the two-ring hex patch with unit boundary:
    # flower at a ring-1 vertex gives 2*(pi/3) + 2*beta(r) + 2*gamma(r) = 2*pi
    def angle_sum(r):
        beta = math.acos(r / (r + 1))
        gamma = math.acos(1 - 2 / ((r + 1) ** 2))
        return 2 * (math.pi / 3) + 2 * beta + 2 * gamma

    lo, hi = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if angle_sum(mid) > 2 * math.pi:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_two_ring_matches_scalar_oracle():
    oracle = _two_ring_oracle()
    g = triangular_ball(6, 2)
    p = pack_disk(g, boundary=EUCLIDEAN)
    # all interior radii coincide by symmetry (rigidity)
    layers = bfs_layers(g, 0)
    ring1 = np.flatnonzero(layers.dist == 1).tolist()
    for v in ring1:
        assert p.radii[v] == pytest.approx(oracle, abs=1e-8)
    assert p.radii[0] == pytest.approx(oracle, abs=1e-8)
    check = verify_packing(p)
    assert check.max_angle_residual < 1e-8
    assert check.max_tangency_error < 1e-7
    assert check.min_separation_margin > -1e-7


def test_layout_two_orders_agree_up_to_rigid_motion():
    g = triangular_ball(6, 2)
    p1 = pack_disk(g, boundary=EUCLIDEAN)
    from speiserlab.packing import _euclid_place, _layout

    r = p1.label
    first = g.rotations[0][2]
    reach = r[0] + r[g.dart_vertex[first ^ 1]]
    p2 = replace(p1, centers=_layout(g, first, reach, partial(_euclid_place, r)))
    assert p2.placed() == p1.placed()
    # align: rotate so the first neighbor direction matches
    nb1 = g.dart_vertex[g.rotations[0][0] ^ 1]
    nb2 = g.dart_vertex[g.rotations[0][2] ^ 1]
    z1 = p1.centers[nb1]
    z2 = p2.centers[nb2]
    spin = (z1 / abs(z1)) / (z2 / abs(z2))
    for v in p2.placed():
        got = p2.centers[v] * spin
        # the second layout is the first one rotated by two petals
        assert abs(abs(got) - abs(p1.centers[v])) < 1e-6


def _reference_layout(g, first, reach, place, allowed=None) -> dict:
    """The breadth-first layout that the array rounds replaced: a queue of
    darts and a dict of centers, one circle per ``place`` call."""
    vertex = g.dart_vertex.tolist()

    def third(d):
        walk = [d]
        for _ in range(3):
            walk.append(g.rot_next(g.twin(walk[-1])))
        return vertex[walk[2]] if walk[3] == d else -1

    centers = {vertex[first]: 0j, vertex[first ^ 1]: complex(reach, 0.0)}
    queue = [first, first ^ 1]
    for d in queue:  # breadth-first: the queue grows while it is read
        w = third(d)
        if w < 0 or w in centers or (allowed is not None and w not in allowed):
            continue
        centers[w] = place(centers, vertex[d], vertex[d ^ 1], w)
        for dart in g.rotation(w):
            if vertex[dart ^ 1] in centers:
                queue += (dart, dart ^ 1)
    return centers


def _reference_euclid_place(r, centers, u, v, w) -> complex:
    cu, cv = centers[u], centers[v]
    dd = abs(cv - cu)
    a, b = r[u] + r[w], r[v] + r[w]
    x = (dd * dd + a * a - b * b) / (2 * dd)
    y = math.sqrt(max(a * a - x * x, 0.0))
    return cu + (cv - cu) / dd * complex(x, -y)


def _reference_hyp_place(h, centers, u, v, w) -> complex:
    c = centers[u]
    vz = (centers[v] - c) / (1 - c.conjugate() * centers[v])
    alpha = float(packing._hyp_corner(np.array([h[u], h[v], h[w]]), 0, 1, 2))
    wz = math.tanh((h[u] + h[w]) / 2) * cmath.exp(1j * (cmath.phase(vz) - alpha))
    return (wz + c) / (1 + c.conjugate() * wz)


def _reference_disk_circle(z: complex, h: float) -> tuple[complex, float]:
    d = 2.0 * math.atanh(min(abs(z), 1 - 1e-16))
    t1, t2 = math.tanh((d + h) / 2), math.tanh((d - h) / 2)
    return ((t1 + t2) / 2 * (z / abs(z)) if abs(z) > 0 else 0j), (t1 - t2) / 2


def _reference_circles(p) -> dict:
    """Laid-out circles of ``p``'s label, one at a time: vertex -> (center,
    radius)."""
    g, r = p.graph, p.label.tolist()
    vertex = g.dart_vertex.tolist()
    if p.boundary_condition == EUCLIDEAN:
        first = g.rotation(0)[0]
        reach = r[0] + r[vertex[first ^ 1]]
        placed = _reference_layout(g, first, reach, partial(_reference_euclid_place, r))
        return {v: (z, r[v]) for v, z in placed.items()}
    inner = set(p.interior)
    first = next(d for d in g.rotation(0) if vertex[d ^ 1] in inner)
    reach = math.tanh((r[0] + r[vertex[first ^ 1]]) / 2)
    placed = _reference_layout(g, first, reach, partial(_reference_hyp_place, r), inner)
    return {v: _reference_disk_circle(z, r[v]) for v, z in placed.items()}


@pytest.mark.parametrize(
    "q, n, boundary",
    [(8, 3, MAXIMAL), (8, 4, MAXIMAL), (8, 5, MAXIMAL), (6, 16, MAXIMAL),
     (8, 4, EUCLIDEAN), (6, 26, EUCLIDEAN)],
)
def test_layout_matches_breadth_first_reference(q, n, boundary):
    p = pack_disk(triangular_ball(q, n), boundary=boundary)
    want = _reference_circles(p)
    placed = p.placed()
    assert placed == sorted(want)
    # a circle may be placed from another tangent pair, which moves it by
    # rounding only
    z, radius = np.array([want[v] for v in placed]).T
    assert np.abs(p.centers[placed] - z).max() < 1e-9
    assert np.abs(p.radii[placed] - radius.real).max() < 1e-9
    # every edge between two laid-out circles is a tangency
    ends = p.graph.dart_vertex.reshape(-1, 2)
    a, b = ends[~np.isnan(p.centers[ends]).any(axis=1)].T
    gap = np.abs(p.centers[a] - p.centers[b]) - (p.radii[a] + p.radii[b])
    assert (np.abs(gap) <= 1e-9 * (p.radii[a] + p.radii[b])).all()


def _layout_rounds(g, boundary, monkeypatch) -> tuple[list[int], CirclePacking]:
    """Circles placed by each ``place`` call, that is each layout round, in
    the packing of ``g``, and the packing."""
    rounds = []
    layout = packing._layout

    def counted(g, first, reach, place, allowed=None):
        def counted_place(centers, u, v, w):
            rounds.append(len(w))
            return place(centers, u, v, w)

        return layout(g, first, reach, counted_place, allowed)

    monkeypatch.setattr(packing, "_layout", counted)
    return rounds, pack_disk(g, boundary=boundary)


@pytest.mark.parametrize(
    "q, n, boundary, per_layer",
    [(8, n, MAXIMAL, 3) for n in range(3, 8)] + [(6, 16, MAXIMAL, 2), (6, 26, EUCLIDEAN, 2)],
)
def test_layout_round_count_guard(q, n, boundary, per_layer, monkeypatch):
    # rounds grow with the depth of the ball, not with its size: observed
    # 3 n - 2 on triangular_ball(8, n), whose flowers of eight petals take a
    # round more to close than the six of the hex balls (2 n - 1 maximal,
    # 2 n + 1 Euclidean); counts, unlike times, do not depend on the machine
    g = triangular_ball(q, n)
    rounds, p = _layout_rounds(g, boundary, monkeypatch)
    depth = int(bfs_layers(g, 0).dist.max())
    assert len(rounds) <= per_layer * depth + 1
    # each circle is placed once, the first two before any round
    assert sum(rounds) == len(p.placed()) - 2


def test_gauss_bonnet_boundary_turning():
    # euclidean layout closes up: total turning along the outer boundary of
    # the carrier equals 2*pi (sum of exterior angles)
    g = triangular_ball(6, 2)
    p = pack_disk(g, boundary=EUCLIDEAN)
    layers = bfs_layers(g, 0)
    rim = np.flatnonzero(layers.dist == 2).tolist()
    # boundary circle centers in cyclic order: walk ring 2 via ring edges
    ring = [rim[0]]
    seen = {rim[0]}
    while len(ring) < len(rim):
        v = ring[-1]
        for d in g.rotations[v]:
            w = g.dart_vertex[d ^ 1]
            if w in set(rim) and w not in seen:
                ring.append(w)
                seen.add(w)
                break
    pts = [p.centers[v] for v in ring]
    turning = 0.0
    k = len(pts)
    for i in range(k):
        a, b, c = pts[i - 1], pts[i], pts[(i + 1) % k]
        turning += math.remainder(
            math.atan2((c - b).imag, (c - b).real)
            - math.atan2((b - a).imag, (b - a).real),
            2 * math.pi,
        )
    assert abs(abs(turning) - 2 * math.pi) < 1e-6


def test_maximal_root_radius_monotone(monkeypatch):
    g2 = triangular_ball(8, 2)
    g3 = triangular_ball(8, 3)
    p2 = pack_disk(g2, boundary=MAXIMAL, layout=False)
    p3 = pack_disk(g3, boundary=MAXIMAL, layout=False)
    rho2 = math.tanh(p2.label[0] / 2)
    rho3 = math.tanh(p3.label[0] / 2)
    assert rho3 < rho2
    # the boundary radius stands in for horocycles: halving it barely moves
    # the root circle
    monkeypatch.setattr(packing, "BOUNDARY_HYP_RADIUS", packing.BOUNDARY_HYP_RADIUS / 2)
    half = pack_disk(g2, boundary=MAXIMAL, layout=False)
    assert abs(math.tanh(half.label[0] / 2) - rho2) < 1e-6


def test_verify_recomputes_maximal_angle_residual():
    p = pack_disk(triangular_ball(8, 3), boundary=MAXIMAL)
    assert verify_packing(p).max_angle_residual == p.diagnostics["angle_residual"]
    label = p.label.copy()
    label[0] *= 1.01
    check = verify_packing(replace(p, label=label))
    assert check.max_angle_residual >= ANGLE_TOL


def _hessians(p, perturb: bool):
    """Analytic Hessian of the packing functional at ``p``'s label (moved off
    the solution when ``perturb``) and its central differences of -theta."""
    kind = packing._LABEL[p.boundary_condition]
    flower = packing._flower_arrays(p.graph, p.interior)
    at = np.asarray(p.interior)
    label = p.label.copy()
    x = kind.to_var(label[at])
    if perturb:
        x *= 1 + 0.2 * np.random.default_rng(3).uniform(-1, 1, len(x))
        label[at] = kind.from_var(x)
    analytic = packing._hessian(p.graph.n_vertices, at, flower, kind.slopes)(label).toarray()
    eps = 1e-5
    numeric = np.empty_like(analytic)
    for j in range(len(at)):
        sums = []
        for step in (eps, -eps):
            trial = label.copy()
            trial[at[j]] = kind.from_var(x[j] + step)
            sums.append(packing._angle_sums(trial, kind.corner, flower)[0])
        numeric[:, j] = (sums[1] - sums[0]) / (2 * eps)
    return analytic, numeric




@pytest.mark.parametrize("perturb", [False, True])
@pytest.mark.parametrize("name", ["maximal_tri8_3", "euclidean_tri8_4"])
def test_hessian_matches_central_differences(name, perturb, request):
    analytic, numeric = _hessians(request.getfixturevalue(name), perturb)
    scale = np.abs(analytic).max()
    assert np.abs(analytic - numeric).max() < 1e-6 * scale
    # the functional is convex: the Hessian is symmetric positive definite
    assert np.abs(analytic - analytic.T).max() < 1e-13 * scale
    assert np.linalg.eigvalsh(analytic).min() > 0


def test_newton_step_bound_hex40():
    p = pack_disk(triangular_ball(6, 40), boundary=MAXIMAL, layout=False)
    assert p.diagnostics["sweeps"] <= 15
    assert verify_packing(p).max_angle_residual < ANGLE_TOL


def test_lambda_gamma_ball_packs():
    # B(2) of lambda(Gamma) has interior degrees 4, 6 and 48; the angle-sum
    # sweeps stalled on it at residual 5.9
    from speiserlab.speiser import GrowthSchedule, lambda_triangulation
    from speiserlab.theorem1 import build_gamma

    lam = lambda_triangulation(build_gamma(5, GrowthSchedule((1, 3, 3, 5, 5))))
    g = induced_ball(lam, 2)
    p = pack_disk(g, boundary=MAXIMAL)
    assert g.n_vertices == 139
    assert sorted({int(g.degree(v)) for v in p.interior}) == [4, 6, 48]
    check = verify_packing(p)
    assert check.max_angle_residual < ANGLE_TOL
    assert check.max_tangency_error < 1e-7


@pytest.mark.parametrize("boundary", [EUCLIDEAN, MAXIMAL])
def test_unconverged_packing_raises_with_diagnostics(boundary, monkeypatch):
    monkeypatch.setattr(packing, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(SolverError) as info:
        pack_disk(triangular_ball(8, 4), boundary=boundary)
    assert info.value.diagnostics["sweeps"] == 1
    assert info.value.diagnostics["angle_residual"] >= ANGLE_TOL


def test_cg_cap_raises_with_diagnostics(monkeypatch):
    # a step whose conjugate gradients stop at the cap is not taken
    pcg = packing._pcg
    monkeypatch.setattr(packing, "_pcg", lambda h, b, inv, maxiter: pcg(h, b, inv, 3))
    with pytest.raises(SolverError, match="did not converge") as info:
        pack_disk(triangular_ball(8, 4), boundary=MAXIMAL)
    assert info.value.diagnostics["sweeps"] == 0
    assert info.value.diagnostics["cg_iterations"] == 3
    assert info.value.diagnostics["angle_residual"] >= ANGLE_TOL


def _maximal_counts(g, monkeypatch):
    """Newton steps and conjugate-gradient iterations per step of the
    maximal packing of ``g``."""
    per_step = []
    pcg = packing._pcg

    def counted(*args):
        out = pcg(*args)
        per_step.append(out[1])
        return out

    monkeypatch.setattr(packing, "_pcg", counted)
    p = pack_disk(g, boundary=MAXIMAL, layout=False)
    assert p.diagnostics["cg_iterations"] == sum(per_step)
    assert len(per_step) == p.diagnostics["sweeps"]
    return p.diagnostics["sweeps"], per_step


@pytest.mark.parametrize(
    "q, n_max, max_steps, max_cg",
    [(8, 7, 6, 15), (6, 24, 8, 40)],
    ids=["tri8", "hex"],
)
def test_maximal_solve_count_guards(q, n_max, max_steps, max_cg, monkeypatch):
    # observed: tri8 4-5 steps of at most 13 iterations, hex 3-8 steps of at
    # most 38; counts, unlike times, do not depend on the machine
    for n in range(1, n_max + 1):
        steps, per_step = _maximal_counts(triangular_ball(q, n), monkeypatch)
        assert steps <= max_steps, n
        assert max(per_step) <= max_cg, n


def test_pcg_matches_scipy_cg():
    from scipy.sparse import csr_matrix, diags
    from scipy.sparse import random as sparse_random
    from scipy.sparse.linalg import cg

    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40, 300):
        a = sparse_random(n, n, density=min(1.0, 4 / n), random_state=rng)
        spd = csr_matrix(a @ a.T + diags(rng.uniform(0.01, 2.0, n)))
        b = rng.normal(size=n)
        inv = 1 / spd.diagonal()
        for maxiter in (10 * n, 2):
            steps = []
            want, info = cg(
                spd, b, rtol=1e-8, maxiter=maxiter, M=diags(inv), callback=steps.append
            )
            got, iterations, solved = packing._pcg(spd, b, inv, maxiter)
            assert iterations == len(steps), (n, maxiter)
            assert solved == (info == 0), (n, maxiter)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (n, maxiter)


def test_non_triangular_interior_face_rejected():
    from speiserlab.errors import GeometryError
    from speiserlab.lattices import square_ball

    with pytest.raises(GeometryError, match="face 0 has 4 sides"):
        pack_disk(square_ball(3))


@pytest.mark.parametrize("boundary", [EUCLIDEAN, MAXIMAL])
def test_non_triangular_face_at_interior_vertex_rejected(boundary):
    # square_ball(2)'s faces all touch the frontier, and its center vertex
    # is interior: its flower is no triangle fan
    from speiserlab.errors import GeometryError
    from speiserlab.lattices import square_ball

    with pytest.raises(GeometryError, match="face 0 has 4 sides"):
        pack_disk(square_ball(2), boundary=boundary)


def test_maximal_interior_tangency():
    g = triangular_ball(8, 3)
    p = pack_disk(g, boundary=MAXIMAL)
    # interior circles have euclidean layout; tangency must hold there
    for e in g.edges():
        a, b = g.edge_ends(e)
        ca, cb = p.centers[a], p.centers[b]
        if np.isnan(ca) or np.isnan(cb):
            continue
        want = p.radii[a] + p.radii[b]
        assert abs(abs(ca - cb) - want) / want < 1e-7


def test_ratio_trend_dichotomy_small():
    hex_report = ratio_trend(lambda n: triangular_ball(6, n), [2, 3, 4, 5, 6])
    assert hex_report.verdict == CP_PARABOLIC
    assert hex_report.fit["ratio_limit"] >= 0.9
    hyp_report = ratio_trend(lambda n: triangular_ball(8, n), [2, 3, 4, 5, 6])
    assert hyp_report.verdict == CP_HYPERBOLIC
    # the root radius decreases monotonically and freezes at a positive value
    rho = hyp_report.rho
    assert all(b < a for a, b in zip(rho, rho[1:]))
    assert rho[-1] > 0.3
    # opposite verdicts is the point of the control pair
    assert hex_report.verdict != hyp_report.verdict


def test_ratio_trend_single_n_inconclusive():
    report = ratio_trend(lambda n: triangular_ball(6, n), [3])
    assert report.verdict == "inconclusive"


def test_inscribed_collection_hex_flower():
    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    g = p.graph
    # interior edges carry two-disk unions meeting at the tangency point
    checked = 0
    for e in g.edges():
        key = ("e", e)
        if key not in col.sets or len(col.sets[key]) != 2:
            continue
        u, v = g.edge_ends(e)
        tangency = p.centers[u] + (p.centers[v] - p.centers[u]) * (
            p.radii[u] / (p.radii[u] + p.radii[v])
        )
        for center, radius in col.sets[key]:
            assert abs(abs(center - tangency) - radius) < 1e-8
        checked += 1
    assert checked >= 6


def test_inscribed_adjacency_intersects():
    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    for a, b in col.adjacency:
        da = col.sets[a]
        db = col.sets[b]
        ok = any(
            abs(c1 - c2) <= r1 + r2 + 1e-9
            for c1, r1 in da
            for c2, r2 in db
        )
        assert ok, (a, b)


def test_svg_output():
    p = pack_disk(hex_flower(), boundary=EUCLIDEAN)
    svg = packing_to_svg(p)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 7
    # the nerve: the flower's 12 edges, all between laid-out circles
    assert svg.count("<line") == 12


def test_svg_zero_is_unsigned():
    # a coordinate that rounds to zero prints as 0.000000 whatever its sign,
    # so last-bit changes of a layout do not move the text
    p = pack_disk(triangular_ball(8, 3), boundary=MAXIMAL)
    # the point reflection turns the root's center 0 into -0 - 0j
    flipped = replace(p, centers=-p.centers)
    assert math.copysign(1.0, flipped.centers[0].real) == -1.0
    for q in (p, flipped):
        svg = packing_to_svg(q)
        assert "-0.000000" not in svg
        assert '<circle cx="0.000000" cy="0.000000"' in svg


def _assert_pinned(p, name):
    """Radii and laid-out centers against ``data/packing_pins.json`` at a
    relative 1e-9, so last-bit changes of the solver or layout pass."""
    import json
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "data" / "packing_pins.json").read_text())
    want = pins[name]
    assert p.boundary_condition == want["boundary_condition"]
    assert p.placed() == want["placed"]
    np.testing.assert_allclose(p.radii, want["radii"], rtol=1e-9, atol=0)
    x, y = np.array(want["centers"]).T
    np.testing.assert_allclose(p.centers[want["placed"]], x + 1j * y, rtol=1e-9, atol=0)


def test_packing_json_dump():
    p = pack_disk(hex_flower(), boundary=EUCLIDEAN)
    q = pack_disk(hex_flower(), boundary=EUCLIDEAN)
    assert np.array_equal(p.radii, q.radii) and np.array_equal(p.centers, q.centers)
    _assert_pinned(p, "hex_flower")


def _all_pairs_margin(p) -> float:
    """Smallest gap over all pairs of placed, non-adjacent circles."""
    g = p.graph
    placed = p.placed()
    index = {v: i for i, v in enumerate(placed)}
    adjacent = np.zeros((len(placed), len(placed)), dtype=bool)
    for e in g.edges():
        a, b = g.edge_ends(e)
        if a in index and b in index:
            adjacent[index[a], index[b]] = adjacent[index[b], index[a]] = True
    z = np.array([p.centers[v] for v in placed])
    r = np.array([p.radii[v] for v in placed])
    best = math.inf
    for i in range(len(placed) - 1):
        d = z[i + 1 :] - z[i]
        gap = np.hypot(d.real, d.imag) - (r[i] + r[i + 1 :])
        gap = gap[~adjacent[i, i + 1 :]]
        if len(gap):
            best = min(best, float(gap.min()))
    return best


@pytest.fixture(scope="module")
def maximal_hex16():
    return pack_disk(triangular_ball(6, 16), boundary=MAXIMAL)


@pytest.fixture(scope="module")
def euclidean_tri8_4():
    return pack_disk(triangular_ball(8, 4), boundary=EUCLIDEAN)


def test_separation_exact_beyond_old_pair_cap():
    # 2,107 circles: 2,218,671 pairs, more than the 2 M pairs an earlier
    # all-pairs loop checked before reporting inf
    p = pack_disk(triangular_ball(6, 26), boundary=EUCLIDEAN)
    placed = len(p.placed())
    assert placed == 2107
    margin = verify_packing(p).min_separation_margin
    assert math.isfinite(margin)
    assert abs(margin - _all_pairs_margin(p)) < 1e-12
    # unit hexagonal packing: next-nearest centers are 2 sqrt(3) apart
    assert margin == pytest.approx(2 * math.sqrt(3) - 2, abs=1e-9)


def test_separation_reports_overlap():
    p = pack_disk(triangular_ball(6, 3), boundary=EUCLIDEAN)
    g = p.graph
    # push vertex 0 toward a vertex two steps away until their circles overlap
    far = next(v for v in g.vertices() if bfs_layers(g, 0).dist[v] == 2)
    centers = p.centers.copy()
    centers[0] = centers[far] + (centers[0] - centers[far]) * 0.5
    moved = replace(p, centers=centers)
    margin = verify_packing(moved).min_separation_margin
    assert margin < 0
    assert abs(margin - _all_pairs_margin(moved)) < 1e-12


@pytest.mark.parametrize("name", ["maximal_hex16", "euclidean_tri8_4", "hex3"])
def test_separation_matches_all_pairs(name, request):
    if name == "hex3":
        p = pack_disk(triangular_ball(6, 3), boundary=EUCLIDEAN)
    else:
        p = request.getfixturevalue(name)
    margin = verify_packing(p).min_separation_margin
    assert margin > 0
    assert abs(margin - _all_pairs_margin(p)) < 1e-12


def test_packing_json_pinned(maximal_hex16, euclidean_tri8_4):
    _assert_pinned(maximal_hex16, "maximal_hex16")
    _assert_pinned(euclidean_tri8_4, "euclidean_tri8_4")


def test_labels_match_sweep_solution(maximal_hex16, euclidean_tri8_4):
    # labels recorded from the angle-sum sweeps that the Newton solver
    # replaced; both solve the angle sums to ANGLE_TOL
    import json
    from pathlib import Path

    recorded = json.loads((Path(__file__).parent / "data" / "sweep_labels.json").read_text())
    for name, p in [("maximal_hex16", maximal_hex16), ("euclidean_tri8_4", euclidean_tri8_4)]:
        np.testing.assert_allclose(p.label, recorded[name], rtol=1e-8, atol=0)


def test_min_separation_random_configurations():
    # unit circles among tiny ones: the closest pair often lies beyond the
    # first search radius, found only by the second query
    from speiserlab.packing import _distance, _min_separation

    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(2, 10))
        z = rng.uniform(-4, 4, n) + 1j * rng.uniform(-4, 4, n)
        radius = np.where(rng.random(n) < 0.5, 1.0, 10.0 ** rng.uniform(-3, -1, n))
        i, j = np.triu_indices(n, 1)
        code = i * n + j
        adjacent = np.sort(rng.choice(code, size=len(code) // 3, replace=False))
        free = ~np.isin(code, adjacent)
        gap = _distance(z, i[free], j[free]) - (radius[i[free]] + radius[j[free]])
        want = float(gap.min()) if len(gap) else math.inf
        assert _min_separation(z, radius, adjacent) == want, trial
    none = np.zeros(0, dtype=np.int64)
    # two small circles within the first radius, a closer pair of unit
    # circles beyond it
    z = np.array([0, 1.9, 10, 12.5])
    got = _min_separation(z, np.array([0.01, 0.01, 1.0, 1.0]), none)
    assert got == pytest.approx(0.5, abs=1e-12)
    # no pair within the first radius: it doubles until one appears
    assert _min_separation(np.array([0, 5.0]), np.ones(2), none) == 3.0
    # every pair adjacent: nothing to separate
    z = np.array([0, 2, 1 + 1j * math.sqrt(3)])
    assert _min_separation(z, np.ones(3), np.array([1, 2, 5])) == math.inf


def test_min_separation_beyond_the_nearest_centers():
    # two unit circles 0.5 apart, each inside a clique of four small circles:
    # every circle's nearest centers are its clique and the other clique, so
    # only the query at 2 r + m0 from the circle of lower id finds the pair
    from speiserlab.packing import _min_separation

    petals = 0.3 * np.exp(0.5j * np.pi * np.arange(4))
    z = np.concatenate([[0], petals, [2.5], 2.5 + petals])
    radius = np.array([1.0] + [0.05] * 4 + [1.0] + [0.05] * 4)
    clique = np.array([(a, b) for a in range(5) for b in range(a + 1, 5)])
    pairs = np.concatenate([clique, clique + 5])
    adjacent = np.sort(pairs[:, 0] * 10 + pairs[:, 1])
    assert _min_separation(z, radius, adjacent) == 0.5


def test_svg_pinned():
    # sha256 of packing_to_svg, recorded from the layout in array rounds;
    # six decimals hide the last bits, and a zero prints unsigned
    import hashlib

    def sha(p):
        return hashlib.sha256(packing_to_svg(p).encode()).hexdigest()[:16]

    assert sha(pack_disk(hex_flower(), boundary=EUCLIDEAN)) == "19d311ac6fa2b118"
    assert sha(pack_disk(triangular_ball(8, 3), boundary=MAXIMAL)) == "c18540f6d493164b"


@pytest.mark.parametrize("layout", [True, False])
def test_placed_are_the_laid_out_circles(layout):
    p = pack_disk(triangular_ball(8, 3), boundary=MAXIMAL, layout=layout)
    placed = p.placed()
    assert placed == np.flatnonzero(~np.isnan(p.centers)).tolist()
    assert placed == sorted(placed) and all(type(v) is int for v in placed)
    # the maximal layout leaves the boundary out; without it only the root sits
    # at the center
    assert placed == (p.interior if layout else [0])
    unplaced = np.setdiff1d(np.arange(p.graph.n_vertices), placed)
    assert np.isnan(p.radii[unplaced]).all() and not np.isnan(p.radii[placed]).any()
    assert p.centers[0] == 0
    for arr in (p.radii, p.centers, p.label):
        assert not arr.flags.writeable
    euclid = pack_disk(triangular_ball(8, 3), boundary=EUCLIDEAN, layout=layout)
    assert euclid.radii is euclid.label
    assert euclid.placed() == (list(range(euclid.graph.n_vertices)) if layout else [])


@pytest.mark.parametrize("boundary", [EUCLIDEAN, MAXIMAL])
def test_extent_is_the_farthest_laid_out_point(boundary):
    from speiserlab.errors import GeometryError

    p = pack_disk(triangular_ball(8, 3), boundary=boundary)
    z, r = p.centers.tolist(), p.radii.tolist()
    assert p.extent() == max(abs(z[v]) + r[v] for v in p.placed())
    with pytest.raises(GeometryError, match="no laid-out circles"):
        pack_disk(triangular_ball(8, 3), boundary=EUCLIDEAN, layout=False).extent()


def test_pack_disk_needs_a_frontier():
    from speiserlab.errors import GeometryError
    from speiserlab.lattices import octahedron

    with pytest.raises(GeometryError, match="mark a frontier"):
        pack_disk(octahedron())
