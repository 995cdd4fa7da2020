"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two criteria test the limits the construction promises, against oracles
computed here from closed forms rather than from program output:

* criterion 7: on the disk-filling side the maximal-packing root radius
  rho(n) stays bounded below (He and Schramm, Hyperbolic and parabolic
  packings, 1995); for the degree-8 ball it freezes at the radius of the
  symmetric {3,8} packing, rho_inf = tanh(h/2) with 8 * angle(h; h, h) =
  2*pi, i.e. cosh 2h = cos(pi/4) / (1 - cos(pi/4)); rho_inf = 0.3645669...
  It is the excess rho(n) - rho_inf that decays log-linearly (R^2 >= 0.95),
  not rho(n).
* criterion 10: the stretched base graph for schedule (l_0, l_1) has ball
  sizes |B(k)| = 1 + 3k for k <= l_0 and 1 + 3 l_0 + 6 (k - l_0) up to
  k = l_0 + l_1, so |B(k)| <= k ln k can only hold for sufficiently large k.
  The first k from which it holds on the checked range, k* (336 for the
  default schedule (21, 8103)), is what the report must give, and the bound
  must hold on the tail [k*, 8000] that recurrence needs.  Two laws tie
  the resistances to each other: R(n) >= NW(n), the Nash-Williams sum of
  the cut sizes, and R(n) nondecreasing in n (Rayleigh monotonicity).
"""

import math

import numpy as np
import pytest

from speiserlab.graph_core import bfs_layers, classify, euler_characteristic, trace_faces
from speiserlab.lattices import octahedron, regular_tree, square_ball, triangular_ball
from speiserlab.refinement import check_refinement, coarsen_metric, refine_metric, subdivide4
from speiserlab.trend import (
    CP_HYPERBOLIC,
    CP_PARABOLIC,
    HYPERBOLIC,
    RECURRENT,
    TRANSIENT,
    first_converged_n,
    fit_linear,
)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)


def test_acceptance_01_subdivide4_octahedron():
    g = octahedron()
    ref, _ = subdivide4(g)
    faces = trace_faces(ref)
    ok = (
        ref.n_vertices == 18
        and ref.n_edges == 48
        and len(faces) == 32
        and euler_characteristic(ref) == 2
        and classify(ref).p_of == 6
    )
    _line(1, ok, "subdivide4(octahedron): V=18 E=48 F=32, Euler 2, p(6)")
    assert ref.n_vertices == 18
    assert ref.n_edges == 48
    assert len(faces) == 32
    assert euler_characteristic(ref) == 2
    assert classify(ref).p_of == 6


def test_acceptance_02_unit_disk_fatness():
    from speiserlab.fatness import PlanarSet, fatness_estimate

    tau = fatness_estimate(
        PlanarSet.disk(), n_samples=100_000, n_radii=8, seed=20080
    )
    ok = tau >= 0.25 - 1e-12
    _line(2, ok, f"unit disk fatness {tau:.4f} >= 1/4 (exact areas on seeded pairs)")
    assert ok


def test_acceptance_03_union_lemma_200_pairs():
    from speiserlab.fatness import PlanarSet, check_union_fat, disks_intersect

    rng = np.random.default_rng(20080)
    worst = 1.0
    for i in range(200):
        r1, r2 = rng.uniform(0.1, 10, size=2)
        gap = rng.uniform(0.0, 0.95)
        b_center = complex(gap * (r1 + r2), 0.0)
        a = PlanarSet.disk(0j, float(r1))
        b = PlanarSet.disk(b_center, float(r2))
        assert disks_intersect(a, b)
        report = check_union_fat(
            a, b, tau=0.25, seed=20080 + i, n_samples=6_000, n_radii=6, n_centers=12
        )
        worst = min(worst, report["tau_union"])
        assert report["passes"], (i, report)
    ok = worst >= 0.25 / 4 - 0.01
    _line(3, ok, f"union lemma on 200 seeded pairs, worst union fatness {worst:.4f}")
    assert ok


def test_acceptance_04_metric_transfer_inequalities():
    g = triangular_ball(8, 2)
    ref, rmap = subdivide4(g)
    M = check_refinement(g, ref, rmap).m_edge
    rng = np.random.default_rng(20080)
    for _ in range(100):
        m_ref = rng.uniform(0, 1, ref.n_vertices)
        m = coarsen_metric(g, ref, rmap, m_ref)
        assert sum(w * w for w in m) <= 8 * M * M * sum(w * w for w in m_ref) + 1e-12

    base = subdivide4(triangular_ball(8, 2))[0]  # satisfies p(6)
    ref2, rmap2 = subdivide4(base)
    M2 = check_refinement(base, ref2, rmap2).m_edge
    K = 6
    for _ in range(100):
        m = rng.uniform(0, 1, base.n_vertices)
        m_ref = refine_metric(base, ref2, rmap2, m, K=K)
        assert sum(w * w for w in m_ref) <= 9 * K * M2 * sum(w * w for w in m) + 1e-12
    _line(4, True, "100+100 random transfers satisfy both square-sum inequalities")


def test_acceptance_05_packing_solver():
    from speiserlab.packing import EUCLIDEAN, pack_disk, verify_packing

    flower = pack_disk(triangular_ball(6, 1), boundary=EUCLIDEAN)
    two_ring = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)

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
    oracle = 0.5 * (lo + hi)

    c1 = verify_packing(flower)
    c2 = verify_packing(two_ring)
    ok = (
        abs(flower.radii[0] - 1.0) < 1e-8
        and c1.max_angle_residual < 1e-8
        and c2.max_angle_residual < 1e-8
        and abs(two_ring.radii[0] - oracle) < 1e-8
    )
    _line(
        5,
        ok,
        f"hex flower radius {flower.radii[0]:.10f}; two-ring radius vs oracle "
        f"|{two_ring.radii[0]:.10f} - {oracle:.10f}|",
    )
    assert abs(flower.radii[0] - 1.0) < 1e-8
    assert c1.max_angle_residual < 1e-8
    assert c2.max_angle_residual < 1e-8
    assert abs(two_ring.radii[0] - oracle) < 1e-8


def test_acceptance_06_inscribed_fat_collection():
    from speiserlab.fatness import PlanarSet, check_hs, fatness_estimate
    from speiserlab.packing import EUCLIDEAN, inscribed_collection, pack_disk

    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    report = check_hs(None, col, samples=100_000, seed=20080)
    edge_ok = True
    for key, disks in sorted(col.sets.items(), key=repr):
        if key[0] != "e" or len(disks) != 2:
            continue
        tau = fatness_estimate(
            PlanarSet(tuple(disks)), n_samples=8_000, n_radii=6, seed=20080, n_centers=8
        )
        edge_ok = edge_ok and tau >= 1 / 16 - 0.01
    ok = report.max_overlap <= 7 and edge_ok
    _line(
        6,
        ok,
        f"inscribed collection: exact overlap {report.max_overlap} <= 7, "
        f"every two-disk edge set >= 1/16 - 0.01 fat",
    )
    assert report.max_overlap <= 7
    assert edge_ok


def _tri8_rho_limit() -> tuple[float, float]:
    """(rho_inf, h) of the symmetric {3,8} packing: 8 * angle(h; h, h) = 2*pi.

    Three mutually tangent circles of hyperbolic radius h span a triangle with
    sides 2h whose angle obeys cos(angle) = cosh 2h / (cosh 2h + 1) by the
    hyperbolic law of cosines; angle = pi/4 gives the closed form below.
    """
    c = math.cos(math.pi / 4)
    h = 0.5 * math.acosh(c / (1 - c))
    return math.tanh(h / 2), h


def test_acceptance_07_type_dichotomy():
    from speiserlab.packing import _hyp_corner, ratio_trend

    rho_inf, h_inf = _tri8_rho_limit()
    assert abs(8 * _hyp_corner(np.full(3, h_inf), 0, 1, 2) - 2 * math.pi) < 1e-12

    ns = [2, 3, 4, 5, 6, 7, 8]
    hex_report = ratio_trend(lambda n: triangular_ball(6, n), ns)
    hyp_report = ratio_trend(lambda n: triangular_ball(8, n), ns)
    rho = hyp_report.rho
    decreasing = all(b < a for a, b in zip(rho, rho[1:]))
    above_limit = all(r > rho_inf for r in rho)
    r2_rho = hyp_report.fit["log_r2"]
    r2 = (
        fit_linear(ns, [math.log(r - rho_inf) for r in rho]).r2
        if above_limit
        else float("nan")
    )
    ok = (
        hex_report.verdict == CP_PARABOLIC
        and hex_report.fit["ratio_limit"] >= 0.9
        and hyp_report.verdict == CP_HYPERBOLIC
        and decreasing
        and above_limit
        and r2 >= 0.95
    )
    _line(
        7,
        ok,
        f"dichotomy: hex {hex_report.verdict} (ratio limit "
        f"{hex_report.fit['ratio_limit']:.3f}), tri8 {hyp_report.verdict} "
        f"(rho decreasing={decreasing}, rho > rho_inf = {rho_inf:.7f}: "
        f"{above_limit}; log-linear R^2 of rho - rho_inf {r2:.6f} >= 0.95, "
        f"of rho itself {r2_rho:.3f})",
    )
    assert hex_report.verdict == CP_PARABOLIC
    assert hex_report.fit["ratio_limit"] >= 0.9
    assert hyp_report.verdict == CP_HYPERBOLIC
    assert decreasing
    assert above_limit
    assert r2 >= 0.95


def test_acceptance_08_resistance_controls():
    from speiserlab.walk import resistance_curve

    g = square_ball(66)
    ns = [8, 11, 16, 23, 32, 45, 64]
    curve = resistance_curve(g, 0, ns)
    fit = fit_linear(np.log(ns), curve.resistance)
    z2_ok = 0.1 <= fit.slope <= 0.3

    tree = regular_tree(3, 12)
    t_ns = list(range(1, 13))
    t_curve = resistance_curve(tree, 0, t_ns)
    n_star = first_converged_n(t_ns, t_curve.resistance)
    closed = [sum(1.0 / (3 * 2**k) for k in range(n)) for n in t_ns]
    match = max(abs(a - b) for a, b in zip(t_curve.resistance, closed))
    tree_ok = n_star is not None and n_star <= 20 and match < 1e-9
    _line(
        8,
        z2_ok and tree_ok,
        f"Z2 log-fit c={fit.slope:.3f} in [0.1,0.3]; tree converged at n={n_star} "
        f"<= 20, closed-form gap {match:.2e}",
    )
    assert z2_ok
    assert tree_ok


def test_acceptance_09_leg_a(theorem1_report):
    leg = theorem1_report.leg_a
    n_star = leg["resistance_first_converged"]
    res_ok = leg["resistance_fit"]["verdict"] == TRANSIENT and n_star is not None and n_star <= 12
    vel_ok = leg["vel_trend"]["verdict"] == HYPERBOLIC
    tail_ok = leg["vel_trend"]["fit"].get("tail_realized", False)
    ok = res_ok and vel_ok and tail_ok
    _line(
        9,
        ok,
        f"leg A: resistance {leg['resistance_fit']['verdict']} (1% by n={n_star}), "
        f"VEL {leg['vel_trend']['verdict']} (cumulative sum converging={tail_ok})",
    )
    assert res_ok
    assert vel_ok
    assert tail_ok


def _gamma_ball_size(k: int, schedule) -> int:
    """|B(k)| of the stretched base graph for k <= l_0 + l_1.

    The root's 3 edges become paths of length l_0; each of their 3 far ends
    has 2 more edges, and these 6 become paths of length l_1.
    """
    l0 = schedule[0]
    return 1 + 3 * k if k <= l0 else 1 + 3 * l0 + 6 * (k - l0)


def test_acceptance_10_leg_b(theorem1_report):
    from speiserlab.speiser import GrowthSchedule
    from speiserlab.theorem1 import build_gamma
    from speiserlab.walk import _upsilon_ball

    cfg = theorem1_report.config
    k_min, k_max = cfg.growth_k_min, cfg.growth_k_max
    assert k_max <= cfg.schedule[0] + cfg.schedule[1]
    ks = range(k_min, k_max + 1)
    expected_failing = [
        k for k in ks if _gamma_ball_size(k, cfg.schedule) > k * math.log(k)
    ]
    k_star = expected_failing[-1] + 1 if expected_failing else k_min

    leg = theorem1_report.leg_b
    growth = leg["growth"]
    sphere = leg["upsilon"]
    schedule = GrowthSchedule(tuple(cfg.schedule))
    gamma = build_gamma(len(schedule), schedule)
    balls = bfs_layers(gamma, 0).ball_sizes()
    counts_ok = all(balls[k] == _gamma_ball_size(k, cfg.schedule) for k in ks)
    report_ok = (
        growth["first_k_holding"] == k_star
        and growth["n_failing"] == len(expected_failing) == k_star - k_min
        and growth["k_max"] == k_max
    )
    tail_ok = k_star <= k_max and all(
        balls[k] <= k * math.log(k) for k in range(k_star, k_max + 1)
    )
    sphere_ok = sphere["sphere_holds_all"]
    # Nash-Williams: R(n) >= NW(n) on the network the Doyle curve solved, a
    # law its flags check too; Rayleigh: R(n) is nondecreasing in n, on the
    # Doyle curve and on leg A's resistance curve
    doyle = leg["doyle"]
    r_doyle, nw = doyle["resistance"], doyle["nash_williams"]
    nw_law = (
        doyle["flags"] == []
        and len(r_doyle) == len(nw) == cfg.doyle_n_max
        and all(r >= b - 1e-9 for r, b in zip(r_doyle, nw))
    )
    rayleigh = all(
        b >= a
        for curve in (r_doyle, theorem1_report.leg_a["resistance"]["resistance"])
        for a, b in zip(curve, curve[1:])
    )
    doyle_ok = leg["doyle"]["verdict"] == RECURRENT

    # degree bound of the extension: base interior degree 3 plus one column
    # per corner gives 6; measured on the assembled ball
    n_nodes, eu, ev, dist = _upsilon_ball(gamma, 0, 24, grid_depth=24)
    degs = np.bincount(np.concatenate([eu, ev]), minlength=n_nodes)
    inner = dist < 24
    deg_ok = int(degs[inner].max()) <= 6

    ok = (
        counts_ok and report_ok and tail_ok and sphere_ok and nw_law and rayleigh
        and doyle_ok and deg_ok
    )
    _line(
        10,
        ok,
        f"leg B: exact |B(k)| equals the closed form on [{k_min},{k_max}]: "
        f"{counts_ok}; |B(k)| <= k ln k from closed-form k* = {k_star}, "
        f"reported from k = {growth['first_k_holding']} with "
        f"{growth['n_failing']} failing k: {report_ok}; holds on "
        f"[{k_star},{k_max}]: {tail_ok}; |S(k)| <= 4k ln k holds_all={sphere_ok}; "
        f"extension degree <= 6: {deg_ok}; R(n) >= NW(n): {nw_law}; R nondecreasing: "
        f"{rayleigh}; doyle {doyle['verdict']}",
    )
    assert counts_ok
    assert report_ok
    assert tail_ok
    assert sphere_ok
    assert nw_law
    assert rayleigh
    assert doyle_ok
    assert deg_ok


def test_acceptance_11_vel_vs_brute_force():
    from speiserlab.lattices import cycle_graph, path_graph
    from speiserlab.vel import solve_vel

    v = np.arange(65) / 64.0
    a, x, b = np.meshgrid(v, v, v, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(
            a * a + x * x + b * b > 0,
            (a + x + b) ** 2 / (a * a + x * x + b * b),
            0.0,
        )
    oracle1 = float(r.max())

    best = 0.0
    for aa in v:
        x1, bb, x2 = np.meshgrid(v, v, v, indexing="ij")
        dist = aa + bb + np.minimum(x1, x2)
        area = aa * aa + bb * bb + x1 * x1 + x2 * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            rr = np.where(area > 0, dist * dist / area, 0.0)
        best = max(best, float(rr.max()))
    oracle2 = best

    est1 = solve_vel(path_graph(2), {0}, {2})
    est2 = solve_vel(cycle_graph(4), {0}, {2})
    ok = est1.lower >= oracle1 - 1e-2 and est2.lower >= oracle2 - 1e-2
    _line(
        11,
        ok,
        f"solver lower bounds {est1.lower:.6f}, {est2.lower:.6f} vs brute force "
        f"{oracle1:.6f}, {oracle2:.6f}",
    )
    assert est1.lower >= oracle1 - 1e-2
    assert est2.lower >= oracle2 - 1e-2


def test_acceptance_12_determinism(theorem1_report):
    from speiserlab.theorem1 import run_theorem1

    second = run_theorem1()
    ok = second.to_json() == theorem1_report.to_json()
    _line(12, ok, "repeated default run yields a byte-identical report")
    assert ok
