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
    EUCLIDEAN,
    MAXIMAL,
    inscribed_collection,
    pack_disk,
    packing_to_svg,
    ratio_trend,
    verify_packing,
)
from speiserlab.trend import CP_HYPERBOLIC, CP_PARABOLIC


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

    r = p1.label.tolist()
    first = g.rotations[0][2]
    reach = r[0] + r[g.dart_vertex[first ^ 1]]
    centers2 = _layout(g, first, reach, partial(_euclid_place, r))
    # align: rotate so the first neighbor direction matches
    nb1 = g.dart_vertex[g.rotations[0][0] ^ 1]
    nb2 = g.dart_vertex[g.rotations[0][2] ^ 1]
    z1 = p1.centers[nb1]
    z2 = centers2[nb2]
    spin = (z1 / abs(z1)) / (z2 / abs(z2))
    for v, c in centers2.items():
        got = c * spin
        # the second layout is the first one rotated by two petals
        assert abs(abs(got) - abs(p1.centers[v])) < 1e-6


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
    rho2 = math.tanh(p2.diagnostics["hyperbolic_radii_root"] / 2)
    rho3 = math.tanh(p3.diagnostics["hyperbolic_radii_root"] / 2)
    assert rho3 < rho2
    # the boundary radius stands in for horocycles: halving it barely moves
    # the root circle
    monkeypatch.setattr(packing, "BOUNDARY_HYP_RADIUS", packing.BOUNDARY_HYP_RADIUS / 2)
    half = pack_disk(g2, boundary=MAXIMAL, layout=False)
    assert abs(math.tanh(half.diagnostics["hyperbolic_radii_root"] / 2) - rho2) < 1e-6


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


@pytest.fixture(scope="module")
def maximal_tri8_3():
    return pack_disk(triangular_ball(8, 3), boundary=MAXIMAL, layout=False)


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
    svg = packing_to_svg(p, nerve=True)
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 7
    assert "<line" in svg


def test_packing_json_dump():
    import json

    from speiserlab.packing import packing_to_json

    p = pack_disk(hex_flower(), boundary=EUCLIDEAN)
    s1 = packing_to_json(p)
    s2 = packing_to_json(pack_disk(hex_flower(), boundary=EUCLIDEAN))
    assert s1 == s2
    data = json.loads(s1)
    assert data["radii"]["0"] == pytest.approx(1.0, abs=1e-8)
    assert len(data["centers"]) == 7


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
    # sha256 of packing_to_json, recorded from the Newton solution
    import hashlib

    from speiserlab.packing import packing_to_json

    def sha(p):
        return hashlib.sha256(packing_to_json(p).encode()).hexdigest()[:16]

    assert sha(maximal_hex16) == "005c30c700e43365"
    assert sha(euclidean_tri8_4) == "5e962ae2be012de3"


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


def test_svg_pinned():
    # sha256 of packing_to_svg with the nerve, recorded when the packing kept
    # its radii and centers in dicts; six decimals hide the solver's last bits
    import hashlib

    def sha(p):
        return hashlib.sha256(packing_to_svg(p, nerve=True).encode()).hexdigest()[:16]

    assert sha(pack_disk(hex_flower(), boundary=EUCLIDEAN)) == "75dc24dda6086943"
    assert sha(pack_disk(triangular_ball(8, 3), boundary=MAXIMAL)) == "0d84ec2698917e10"


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


def test_pack_disk_needs_a_frontier():
    from speiserlab.errors import GeometryError
    from speiserlab.lattices import octahedron

    with pytest.raises(GeometryError, match="mark a frontier"):
        pack_disk(octahedron())
