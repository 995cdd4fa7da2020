import dataclasses
import math

import numpy as np
import pytest

from speiserlab import fatness
from speiserlab.errors import GeometryError
from speiserlab.fatness import (
    PlanarSet,
    _box,
    _set_fractions,
    check_hs,
    check_union_fat,
    disks_intersect,
    fatness_estimate,
)
from speiserlab.lattices import triangular_ball
from speiserlab.packing import EUCLIDEAN, MAXIMAL, FatCollection, inscribed_collection, pack_disk


def _cap_fractions(centers, radii, x, r):
    """Exact share of each disk D(x_k, r_k) that the union of the disks
    (``centers``, ``radii``) covers: ``_set_fractions`` of that one set."""
    return _set_fractions([(centers, radii)], x, r, np.zeros(len(x), dtype=np.intp))


def test_unit_disk_quarter_fat():
    # the exact fraction of D(x, r) in the unit disk is at least 1/4 whenever
    # x lies in the disk and D(x, r) does not contain it
    tau = fatness_estimate(PlanarSet.disk(), n_samples=100_000, n_radii=8, seed=1)
    assert tau >= 0.25 - 1e-12


def test_cap_fraction_of_a_quarter():
    # D(1, 2) contains the unit disk, tangent at -1: pi / (4 pi)
    f = _cap_fractions(np.array([0j]), np.array([1.0]), np.array([1 + 0j]), np.array([2.0]))
    assert abs(f[0] - 0.25) < 1e-15
    # the same seen from far away, and a query inside the set
    c = np.array([1e3 + 2e3j])
    f = _cap_fractions(c, np.array([1.0]), c + np.array([1, 0.25j]), np.array([2.0, 0.5]))
    assert np.allclose(f, [0.25, 1.0], rtol=0, atol=1e-12)


def _lens_area(r1, r2, d):
    """Area of the intersection of disks of radii r1, r2 at distance d.

    The half-angles come from atan2 of the kite's doubled area, which stays
    accurate near tangency, where arccos of their cosines does not.
    """
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return np.pi * min(r1, r2) ** 2
    kite = np.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
    a1 = np.arctan2(kite, d * d + r1 * r1 - r2 * r2)
    a2 = np.arctan2(kite, d * d + r2 * r2 - r1 * r1)
    return r1 * r1 * a1 + r2 * r2 * a2 - 0.5 * kite


def test_cap_fractions_match_lens_area():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r1, r2 = rng.uniform(0.05, 5.0, size=2)
        d = rng.uniform(0.0, 1.1 * (r1 + r2))
        c = complex(*rng.uniform(-50, 50, size=2))
        x = c + d * np.exp(2j * np.pi * rng.random())
        f = _cap_fractions(np.array([c]), np.array([r1]), np.array([x]), np.array([r2]))
        assert abs(f[0] * np.pi * r2 * r2 - _lens_area(r1, r2, d)) < 1e-12 * max(1, r2 * r2)


def test_thin_union_less_fat():
    # near the far tip of the tiny lobe, a medium disk sees just a sliver of
    # the big disk plus the lobe: analytically the fraction dips to ~0.21
    s = PlanarSet(((0j, 1.0), (1.01 + 0j, 0.01)))
    tau = fatness_estimate(s, n_samples=20_000, n_radii=24, seed=2, n_centers=40)
    assert tau < 0.23


def test_determinism_same_seed():
    s = PlanarSet(((0j, 1.0), (0.5 + 0.5j, 0.7)))
    a = fatness_estimate(s, n_samples=5_000, n_radii=6, seed=77)
    b = fatness_estimate(s, n_samples=5_000, n_radii=6, seed=77)
    assert a == b


def test_more_radii_never_increase():
    s = PlanarSet(((0j, 1.0), (1.2 + 0j, 0.5)))
    taus = [
        fatness_estimate(s, n_samples=3_000, n_radii=k, seed=5) for k in (2, 4, 8)
    ]
    assert taus[0] >= taus[1] >= taus[2]


def test_degenerate_set_rejected():
    with pytest.raises(GeometryError):
        PlanarSet(((0j, 0.0),))
    with pytest.raises(GeometryError):
        PlanarSet(((0j, 1.0), (10 + 0j, 1.0)))  # disconnected


@pytest.mark.parametrize(
    "center",
    [complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0), complex(0, -math.inf)],
)
def test_non_finite_center_rejected(center):
    # one disk is connected: the center, not the union, is at fault
    for disks in (((center, 1.0),), ((0j, 1.0), (center, 1.0))):
        with pytest.raises(GeometryError, match="non-finite disk center"):
            PlanarSet(disks)


def test_union_lemma_two_unit_disks():
    a = PlanarSet.disk(0j, 1.0)
    b = PlanarSet.disk(1 + 0j, 1.0)
    report = check_union_fat(a, b, tau=0.25, seed=11, n_samples=20_000)
    assert report["passes"]


def test_union_identical_disks():
    a = PlanarSet.disk(0j, 1.0)
    report = check_union_fat(a, a, tau=0.25, seed=12, n_samples=50_000)
    assert report["tau_union"] >= 0.25 - 0.02


def test_union_disjoint_rejected():
    a = PlanarSet.disk(0j, 1.0)
    b = PlanarSet.disk(5 + 0j, 1.0)
    with pytest.raises(GeometryError):
        check_union_fat(a, b, tau=0.25)


def test_union_lemma_random_pairs_sample():
    rng = np.random.default_rng(42)
    for _ in range(20):
        r1, r2 = rng.uniform(0.1, 10, size=2)
        c2 = complex(rng.uniform(0, 0.9) * (r1 + r2), 0)
        a = PlanarSet.disk(0j, float(r1))
        b = PlanarSet.disk(c2, float(r2))
        assert disks_intersect(a, b)
        report = check_union_fat(
            a, b, tau=0.25, seed=int(rng.integers(1 << 31)), n_samples=8_000
        )
        assert report["passes"]


def test_check_hs_inscribed_hex_patch():
    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    report = check_hs(None, col, samples=30_000, seed=3)
    assert report.locally_finite
    assert report.max_overlap <= 7
    assert report.adjacency_ok
    assert report.worst_fatness >= 1 / 16 - 0.01
    assert report.all_pass()


def test_all_pass_reads_the_fatness_condition():
    # the hex2 collection's sets are about 0.13 fat: a claimed 0.99 fails
    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = dataclasses.replace(inscribed_collection(p), tau=0.99)
    report = check_hs(None, col, seed=1)
    assert report.overlap_ok and report.adjacency_ok and report.locally_finite
    assert report.worst_fatness < report.claimed_tau == 0.99
    assert not report.all_pass()


def test_check_hs_detects_broken_adjacency():
    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    # shrink one vertex disk to break its adjacencies
    key = ("v", 0)
    c, r = col.sets[key][0]
    col.sets[key] = ((c, r * 1e-3),)
    report = check_hs(None, col, samples=5_000, seed=4)
    assert not report.adjacency_ok
    assert report.missing_adjacencies


def test_check_hs_reads_adjacency_off_the_graph():
    p = pack_disk(triangular_ball(6, 2), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    report = check_hs(p.graph, col, samples=5_000, seed=6)
    assert report.adjacency_ok
    assert report.all_pass()
    # the edges of the graph, not the collection's list, are checked:
    # shrinking vertex 0 breaks exactly its edges
    c, r = col.sets[("v", 0)][0]
    col.sets[("v", 0)] = ((c, r * 1e-3),)
    col.adjacency = []
    report = check_hs(p.graph, col, samples=5_000, seed=6)
    ends = p.graph.dart_vertex.reshape(-1, 2).tolist()
    want = sorted((("v", a), ("v", b)) for a, b in ends if 0 in (a, b))
    assert sorted(report.missing_adjacencies) == want
    assert len(want) == p.graph.degree(0)
    # vertex ids as keys are accepted as before
    plain = FatCollection(
        sets={v: col.sets[("v", v)] for v in range(p.graph.n_vertices)},
        adjacency=[],
        tau=col.tau,
        overlap_bound=col.overlap_bound,
    )
    assert len(check_hs(p.graph, plain, samples=2_000, seed=6).missing_adjacencies) == len(want)
    del col.sets[("v", 1)]
    with pytest.raises(GeometryError):
        check_hs(p.graph, col, samples=2_000, seed=6)


@pytest.mark.parametrize(
    "sets, adjacency, message",
    [
        ({}, [], "empty collection"),
        (
            {("v", 0): ((0j, 1.0),)},
            [(("v", 0), ("e", 3))],
            r"adjacency names \('e', 3\), which has no set",
        ),
    ],
    ids=["empty", "dangling"],
)
def test_check_hs_rejects_bad_input_before_any_geometry(sets, adjacency, message, monkeypatch):
    def no_geometry(*_):
        raise AssertionError("geometry ran on a bad collection")

    monkeypatch.setattr(fatness, "PlanarSet", no_geometry)
    col = FatCollection(sets=sets, adjacency=adjacency, tau=1 / 16, overlap_bound=7)
    with pytest.raises(GeometryError, match=message):
        check_hs(None, col)


def test_check_hs_missing_adjacencies_match_pair_loop(monkeypatch):
    # one pass over the touching disks decides every adjacency; a per-pair
    # disks_intersect loop is the reference, in the adjacency list's order
    rng = np.random.default_rng(11)
    sets = {("v", 0): ((0j, 1.0),), ("e", 1): ((2 + 0j, 1.0),)}  # tangent
    for k in range(2, 30):
        z = complex(*rng.uniform(0, 8, 2))
        disks = [(z, float(rng.uniform(0.2, 1.0)))]
        for _ in range(int(rng.integers(0, 3))):
            c, r = disks[-1]
            step = r * np.exp(2j * np.pi * rng.random())
            disks.append((c + step, float(rng.uniform(0.2, 1.0))))
        sets[("v" if k % 3 else "e", k)] = tuple(disks)
    keys = list(sets)
    adjacency = [(keys[0], keys[1]), (keys[1], keys[0]), (keys[5], keys[5])]
    adjacency += [tuple(keys[i] for i in rng.choice(len(keys), 2)) for _ in range(120)]
    want = [
        (a, b)
        for a, b in adjacency
        if not disks_intersect(PlanarSet(sets[a]), PlanarSet(sets[b]))
    ]
    assert 0 < len(want) < len(adjacency) - 3
    col = FatCollection(sets=sets, adjacency=adjacency, tau=0.01, overlap_bound=9)
    monkeypatch.setattr(fatness, "disks_intersect", None)
    report = check_hs(None, col, seed=2)
    assert report.missing_adjacencies == want


def test_check_hs_disjoint_family_fails():
    sets = {
        ("v", 0): ((0j, 1.0),),
        ("v", 1): ((10 + 0j, 1.0),),
    }
    col = FatCollection(
        sets=sets, adjacency=[(("v", 0), ("v", 1))], tau=0.25, overlap_bound=2
    )
    report = check_hs(None, col, samples=2_000, seed=5)
    assert not report.adjacency_ok


# -- array kernels against the loop versions they replaced ------------------


def _touches_ref(ca, ra, cb, rb):
    return abs(ca - cb) <= (ra + rb) * (1 + 1e-9)


def _connected_ref(disks):
    """Union-find over touching pairs."""
    parent = list(range(len(disks)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, (ci, ri) in enumerate(disks):
        for j in range(i + 1, len(disks)):
            cj, rj = disks[j]
            if _touches_ref(ci, ri, cj, rj):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(len(disks))}) == 1


def _contains_ref(disks, pts):
    inside = np.zeros(len(pts), dtype=bool)
    for c, r in disks:
        inside |= np.abs(pts - c) <= r
    return inside


def _random_disks(rng, n):
    """Random disks, plus disks tangent to and identical with earlier ones."""
    disks = []
    for _ in range(n):
        kind = rng.integers(3) if disks else 0
        if kind == 0:
            c = complex(*rng.uniform(-4, 4, size=2))
            disks.append((c, float(rng.uniform(0.2, 2.0))))
        elif kind == 1:
            c, r = disks[rng.integers(len(disks))]
            r2 = float(rng.uniform(0.2, 2.0))
            disks.append((c + (r + r2) * np.exp(2j * np.pi * rng.random()), r2))
        else:
            disks.append(disks[rng.integers(len(disks))])
    return disks


def _seeded_families(count=40):
    rng = np.random.default_rng(2024)
    return [_random_disks(rng, int(rng.integers(1, 12))) for _ in range(count)]


def _connected_prefix(disks):
    """The longest prefix of ``disks`` whose union is connected."""
    while not _connected_ref(disks):
        disks = disks[:-1]
    return tuple(disks)


def test_connectivity_matches_union_find():
    seen = set()
    for disks in _seeded_families():
        want = _connected_ref(disks)
        seen.add(want)
        if want:
            s = PlanarSet(tuple(disks))
            assert s.disks == tuple(disks)
            assert np.array_equal(s.centers, [c for c, _ in disks])
            assert np.array_equal(s.radii, [r for _, r in disks])
        else:
            with pytest.raises(GeometryError, match="not connected"):
                PlanarSet(tuple(disks))
    assert seen == {True, False}


def test_tangent_and_identical_disks_connect():
    s = PlanarSet(((0j, 1.0), (2.0 + 0j, 1.0), (2.0 + 0j, 1.0)))
    assert _connected_ref(s.disks)
    with pytest.raises(GeometryError):
        PlanarSet(((0j, 1.0), (2.0 + 1e-3j, 1.0)))
    a = PlanarSet.disk(0j, 0.3)
    b = PlanarSet.disk(0.7 * np.exp(0.4j), 0.4)  # tangent up to rounding
    assert disks_intersect(a, b) and disks_intersect(a, a)


def test_disks_intersect_matches_pair_loop():
    families = [_connected_prefix(d) for d in _seeded_families()]
    sets = [PlanarSet(d) for d in families]
    hits = []
    for a, b in zip(sets, sets[1:] + sets[:1]):
        want = any(
            _touches_ref(ca, ra, cb, rb) for ca, ra in a.disks for cb, rb in b.disks
        )
        hits.append(want)
        assert disks_intersect(a, b) == want
    assert any(hits) and not all(hits)


def test_contains_and_overlap_match_per_set_loop():
    from speiserlab.fatness import _cover, _sample

    rng = np.random.default_rng(7)
    sets = [PlanarSet(_connected_prefix(d)) for d in _seeded_families()]
    centers = np.concatenate([s.centers for s in sets])
    radii = np.concatenate([s.radii for s in sets])
    bounds = np.cumsum([0] + [len(s.disks) for s in sets])
    pts = np.concatenate(
        [_sample(rng.random((1, 3, 200)), s.centers[None], s.radii[None])[0] for s in sets]
    )
    box = rng.uniform(-6, 6, size=(2, 500))
    pts = np.concatenate([pts, box[0] + 1j * box[1]])
    counts = np.zeros(len(pts), dtype=int)
    for s in sets:
        inside = _contains_ref(s.disks, pts)
        assert np.array_equal(_cover(pts, s.centers, s.radii, [0, len(s.disks)]) > 0, inside)
        counts += inside
    assert np.array_equal(_cover(pts, centers, radii, bounds), counts)
    assert counts.max() > 1
    # every set's own sample points lie in that set
    for g, s in enumerate(sets):
        assert _contains_ref(s.disks, pts[200 * g : 200 * (g + 1)]).all()


def test_cap_fractions_of_tangent_disks_add_up():
    # disks that touch at one point share no area, so the covered area is the
    # sum of the two lenses; the query disks hold the tangency point
    rng = np.random.default_rng(32)
    for _ in range(300):
        r1, r2 = rng.uniform(0.05, 5.0, size=2)
        c1 = complex(*rng.uniform(-50, 50, size=2))
        c2 = c1 + (r1 + r2) * np.exp(2j * np.pi * rng.random())
        touch = c1 + r1 * (c2 - c1) / abs(c2 - c1)
        r = rng.uniform(0.01, 2.0) * (r1 + r2)
        x = touch + rng.uniform(0, r) * np.exp(2j * np.pi * rng.random())
        f = _cap_fractions(np.array([c1, c2]), np.array([r1, r2]), np.array([x]), np.array([r]))
        want = _lens_area(r1, r, abs(x - c1)) + _lens_area(r2, r, abs(x - c2))
        assert abs(f[0] * np.pi * r * r - want) < 1e-12 * max(1, r * r)


def test_cap_fractions_drop_contained_disks():
    # a disk inside another leaves the union as it is; a near-coincident
    # copy used to put its arc midpoints within rounding of the other circle
    from speiserlab.fatness import _contained, fatness_pairs

    x, r = fatness_pairs(PlanarSet.disk(0j, 0.1), n_radii=4, seed=5)
    alone = _cap_fractions(np.array([0j]), np.array([0.1]), x, r)
    for gap in (0.0, 1e-300, 1e-270, 1e-16, 1e-12):
        for pair in ([0j, complex(gap)], [complex(gap), 0j]):
            f = _cap_fractions(np.array(pair), np.array([0.1, 0.1]), x, r)
            np.testing.assert_allclose(f, alone, rtol=0, atol=1e-9)
    inner = np.array([0j, 0.05 + 0j, 0.02j])
    f = _cap_fractions(inner, np.array([0.1, 0.05, 0.01]), x, r)
    assert np.array_equal(f, alone)
    # of two disks that contain each other only the later one is dropped
    c = np.array([0j, 0j, 0.5 + 0j, 3 + 0j])
    assert _contained(c, np.array([1.0, 1.0, 0.5, 1.0])).tolist() == [False, True, True, False]


def test_cap_fractions_of_query_disks_inside_the_set():
    # a query disk inside one set disk scores 1 without cutting arcs; the
    # arcs give the same share up to rounding
    from speiserlab.fatness import _cap_areas

    centers, radii = np.array([0j, 1.5 + 0j]), np.array([1.0, 0.8])
    x = np.array([0.2 + 0.1j, 1.6 - 0.3j, -0.5 + 0j])
    r = np.array([0.7, 0.4, 0.5])
    assert _cap_fractions(centers, radii, x, r).tolist() == [1.0, 1.0, 1.0]
    arcs = _cap_areas(centers, radii, x, r) / np.pi
    np.testing.assert_allclose(arcs, 1.0, rtol=0, atol=1e-12)


def test_cap_fractions_of_nearly_tangent_crossings():
    # two circles crossing at a tiny angle, outside or inside each other, in
    # a query disk that holds both: each pair's meeting points are shared by
    # its two circles, so the kept arcs close up
    rng = np.random.default_rng(33)
    for i in range(400):
        r1, r2 = rng.uniform(0.05, 5.0, size=2)
        delta = 10 ** rng.uniform(-12, -6)
        d = (r1 + r2) * (1 - delta) if i % 2 else abs(r1 - r2) * (1 + delta)
        c1 = complex(*rng.uniform(-50, 50, size=2))
        c2 = c1 + d * np.exp(2j * np.pi * rng.random())
        r = 1.5 * (r1 + r2 + d)
        x = (c1 + c2) / 2 + rng.uniform(0, 0.1) * r * np.exp(2j * np.pi * rng.random())
        f = _cap_fractions(np.array([c1, c2]), np.array([r1, r2]), np.array([x]), np.array([r]))
        want = np.pi * (r1 * r1 + r2 * r2) - _lens_area(r1, r2, abs(c2 - c1))
        assert abs(f[0] * np.pi * r * r - want) < 1e-12 * r * r


def _monte_carlo(disks, x, r, rng, count):
    """Share of ``count`` uniform points of D(x, r) that lie in the union."""
    pts = x + r * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))
    return float(np.mean(_contains_ref(disks, pts)))


def test_cap_fractions_match_monte_carlo():
    # seeded families, tangent and identical disks included, against 400k
    # uniform points per (center, radius) pair: agreement to 5 sigma
    rng = np.random.default_rng(404)
    families = [_connected_prefix(d) for d in _seeded_families()]
    families = [d for d in families if len(d) > 1]
    families.append(((0j, 1.0), (2.0 + 0j, 1.0), (2.0 + 0j, 1.0)))
    count = 400_000
    seen = []
    for disks in families:
        s = PlanarSet(disks)
        x = s.centers[rng.integers(len(disks))] + rng.uniform(0, 1) * s.radii[0]
        x0, x1, y0, y1 = _box(s.centers, s.radii)
        r = rng.uniform(0.2, 1.5) * math.hypot(x1 - x0, y1 - y0)
        f = _cap_fractions(s.centers, s.radii, np.array([x]), np.array([r]))[0]
        sigma = np.sqrt(max(f * (1 - f), 1e-12) / count)
        assert abs(_monte_carlo(disks, x, r, rng, count) - f) <= 5 * sigma
        seen.append(f)
    assert len(seen) >= 20 and min(seen) < 0.1 and max(seen) > 0.3


def test_sample_counts_have_no_effect():
    s = PlanarSet(((0j, 1.0), (1.2 + 0j, 0.5)))
    taus = {fatness_estimate(s, n_samples=k, n_radii=4, seed=5) for k in (1, 3_000, 10**9)}
    assert len(taus) == 1
    with pytest.raises(GeometryError):
        fatness_estimate(s, n_samples=0)
    col = FatCollection(sets={0: s.disks}, adjacency=[], tau=0.25, overlap_bound=1)
    reports = [check_hs(None, col, samples=k, seed=2) for k in (1, 10**9)]
    assert reports[0] == reports[1]
    with pytest.raises(GeometryError):
        check_hs(None, col, samples=0)


# -- exact overlap --------------------------------------------------------------


@pytest.mark.parametrize("depth", [2, 3])
def test_inscribed_collection_overlap_is_seven(depth):
    # at each packing tangency point: the two vertex disks and the five edge
    # sets whose incircles pass through it
    col = inscribed_collection(pack_disk(triangular_ball(6, depth), boundary=EUCLIDEAN))
    report = check_hs(None, col, seed=1)
    assert report.max_overlap == 7 == col.overlap_bound
    assert report.overlap_ok


def test_overlap_counts_tangency_points():
    # A and B touch at p and the circle of C passes through p: p is the one
    # point in all three, found up to rounding by the tangency tolerance
    rng = np.random.default_rng(8)
    for _ in range(50):
        ra, rb, rc = rng.uniform(0.1, 10.0, size=3)
        p = complex(*rng.uniform(-100, 100, size=2))
        u = np.exp(2j * np.pi * rng.random())
        w = u * np.exp(1j * rng.uniform(0.3, 2.8))
        sets = {"a": ((p - ra * u, ra),), "b": ((p + rb * u, rb),), "c": ((p + rc * w, rc),)}
        col = FatCollection(sets=sets, adjacency=[], tau=0.25, overlap_bound=3)
        assert check_hs(None, col, seed=1).max_overlap == 3


def test_overlap_counts_a_thin_triple_lens():
    # the three disks share only a sliver around the top of a thin lens:
    # points drawn in the sets almost never land there
    eps = 1e-4
    sets = {
        0: ((complex(-1 + eps, 0), 1.0),),
        1: ((complex(1 - eps, 0), 1.0),),
        2: ((0.5j, 0.49),),
    }
    col = FatCollection(sets=sets, adjacency=[], tau=0.25, overlap_bound=2)
    report = check_hs(None, col, seed=20080)
    assert report.max_overlap == 3
    assert not report.overlap_ok


# -- the batched pass of check_hs against one call per set ------------------

# sets of 1, 2, 3 and 5 disks; a disk inside another (and an identical copy)
# makes the kept counts 1, 2, 2, 4 and 1 differ from the listed ones
HAND_SETS = {
    ("v", 0): ((0j, 1.0),),
    ("e", 1): ((3 + 0j, 1.0), (4.5 + 0j, 0.8)),
    ("f", 2): ((3j, 1.0), (0.3 + 3j, 0.4), (1.5 + 3j, 0.7)),
    ("f", 3): ((6 + 6j, 1.0), (7.2 + 6j, 0.5), (6 + 7.3j, 0.6), (6 + 6j, 0.5), (5 + 6j, 0.3)),
    ("e", 4): ((10j, 1.0), (10j, 1.0)),
}


def _hand_collection():
    return FatCollection(sets=dict(HAND_SETS), adjacency=[], tau=0.01, overlap_bound=5)


def _collections():
    yield "hand", _hand_collection()
    for name, q, depth, boundary in [
        ("hex2", 6, 2, EUCLIDEAN),
        ("hex3", 6, 3, EUCLIDEAN),
        ("tri8-2", 8, 2, MAXIMAL),
    ]:
        yield name, inscribed_collection(pack_disk(triangular_ball(q, depth), boundary=boundary))


def _per_set_worst(col, seed):
    """The documented reference: the least ``fatness_estimate`` over the
    sets, set j in ``repr`` order drawn from seed + 3 + j."""
    keys = sorted(col.sets, key=repr)
    return min(
        fatness_estimate(PlanarSet(tuple(col.sets[k])), n_radii=6, seed=seed + 3 + j, n_centers=8)
        for j, k in enumerate(keys)
    )


def test_hand_sets_keep_fewer_disks_than_they_list():
    from speiserlab.fatness import _contained

    sets = [PlanarSet(d) for d in HAND_SETS.values()]
    kept = [int((~_contained(s.centers, s.radii)).sum()) for s in sets]
    assert [len(d) for d in HAND_SETS.values()] == [1, 2, 3, 5, 2]
    assert kept == [1, 2, 2, 4, 1]


@pytest.mark.parametrize("seed", [1, 2001, 20080])
def test_check_hs_equals_the_per_set_estimates(seed):
    for name, col in _collections():
        assert check_hs(None, col, seed=seed).worst_fatness == _per_set_worst(col, seed), name


def test_batched_pairs_and_fractions_equal_each_set_alone():
    # every set's pairs and exact shares, not only the least one
    from speiserlab.fatness import _pairs_of, fatness_pairs

    for name, col in _collections():
        sets = [PlanarSet(tuple(v)) for v in col.sets.values()]
        disks = [(s.centers, s.radii) for s in sets]
        seeds = [40 + 7 * j for j in range(len(sets))]
        x, r, owner = _pairs_of(disks, seeds, 6, 8)
        f = _set_fractions(disks, x, r, owner)
        assert sorted(set(owner.tolist())) == list(range(len(sets))), name
        for j, s in enumerate(sets):
            x1, r1 = fatness_pairs(s, 6, seeds[j], 8)
            mine = owner == j
            assert np.array_equal(x[mine], x1) and np.array_equal(r[mine], r1), name
            assert np.array_equal(f[mine], _cap_fractions(s.centers, s.radii, x1, r1)), name


def test_check_hs_scores_in_one_pass_per_kept_count(monkeypatch):
    # no per-set fatness_estimate call, and one _cap_areas call per chunk of
    # each kept-count group; the per-set loop makes about one per set
    from speiserlab.fatness import _PAIRS, _contained, _pairs_of

    p = pack_disk(triangular_ball(6, 3), boundary=EUCLIDEAN)
    col = inscribed_collection(p)
    calls = {"fatness_estimate": 0, "_cap_areas": 0}
    for name in calls:
        inner = getattr(fatness, name)

        def counted(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(fatness, name, counted)
    seed = 9
    check_hs(None, col, seed=seed)
    assert calls["fatness_estimate"] == 0
    sets = [PlanarSet(tuple(col.sets[k])) for k in sorted(col.sets, key=repr)]
    disks = [(s.centers, s.radii) for s in sets]
    _, _, owner = _pairs_of(disks, [seed + 3 + j for j in range(len(sets))], 6, 8)
    kept = np.array([(~_contained(c, rho)).sum() for c, rho in disks])
    rows = np.bincount(kept[owner])
    bound = sum(-(-int(k) // max(1, _PAIRS // (2 * (n + 1) ** 3))) for n, k in enumerate(rows))
    assert 0 < calls["_cap_areas"] <= bound < len(sets) // 4
