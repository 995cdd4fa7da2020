"""Exact fat-set areas and overlaps for finite unions of disks.

A set is tau-fat when every disk D(x, r) centered in the set and not
containing it captures at least a tau fraction of its area inside the set.
The estimator scores a seeded family of (x, r) pairs: centers at each disk's
center, near its rim and at random points of the set, radii log-uniform.
Each pair's fraction is exact, by Green's theorem over the boundary arcs of
the set's intersection with D(x, r) (``_set_fractions``), so the seed only
chooses the pairs.  Disks that another disk contains (up to the tangency
tolerance) are dropped before the arcs are cut: they leave the union as it
is, and a near-coincident copy would put arc midpoints within rounding of
the other circle.  The minimum over finitely many pairs is still an upper
bound on the true infimum.  Growing the radius count never increases the
estimate (prefix sampling).

One pass scores any number of sets: ``_pairs_of`` draws every set's pairs
from its own seed and ``_set_fractions`` scores them, the sets grouped by
disk count and each row of the area kernel carrying its own set's disks.
``fatness_estimate`` is the pass over one set and ``check_hs`` the pass over
a whole collection, with the same pairs, seeds and bits either way.

The overlap of a disk family is counted exactly, at the points where the
greatest overlap of closed disks is attained (``_overlaps``).

Membership, intersection and connectivity are broadcasts over the center
and radius arrays of ``PlanarSet``, in chunks of at most ``_PAIRS`` pairs;
the connectivity of one or two disks is read off the broadcast directly,
and only three or more disks go through a graph search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError
from .graph_core import RotationGraph
from .packing import FatCollection

Disk = tuple[complex, float]

_PAIRS = 1 << 15  # point-disk pairs per temporary: 512 KB of complex offsets
_MEET = 1 + 1e-9  # the tangency tolerance of _touching
_SNAP = 1e-5  # half-angles this close to 0 or pi are tangencies
# a disk center and eight points near its rim: deterministic probes that
# catch thin features area-weighted random centers would miss
_PROBES = np.concatenate([[0], 0.98 * np.exp(2j * np.pi * np.arange(8) / 8)])


@dataclass(frozen=True)
class PlanarSet:
    """Finite union of closed disks; must be nonempty and connected, with
    finite centers and positive finite radii.

    ``centers`` and ``radii`` are read-only arrays of the disks' centers and
    radii, in the order of ``disks``.
    """

    disks: tuple[Disk, ...]
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    radii: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.disks:
            raise GeometryError("empty set")
        centers = np.array([c for c, _ in self.disks], dtype=complex)
        radii = np.array([r for _, r in self.disks], dtype=float)
        bad = ~((radii > 0) & np.isfinite(radii))
        if bad.any():
            raise GeometryError(f"degenerate disk radius {radii[bad][0]}")
        bad = ~np.isfinite(centers)
        if bad.any():
            raise GeometryError(f"non-finite disk center {centers[bad][0]}")
        if not _connected(centers, radii):
            raise GeometryError("disk union is not connected")
        centers.flags.writeable = radii.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @classmethod
    def disk(cls, center: complex = 0j, radius: float = 1.0) -> "PlanarSet":
        return cls(((center, radius),))


def _box(centers, radii):
    """Bounding box (x0, x1, y0, y1) of the disks along the last axis."""
    half = (1 + 1j) * radii
    lo, hi = centers - half, centers + half
    return lo.real.min(-1), hi.real.max(-1), lo.imag.min(-1), hi.imag.max(-1)


def _touching(ca, ra, cb, rb) -> np.ndarray:
    """Whether closed disk a_i meets closed disk b_j, for all pairs (i, j)."""
    # the tolerance absorbs float error at exact tangency
    return np.abs(ca[:, None] - cb) <= (ra[:, None] + rb) * _MEET


def _connected(centers, radii) -> bool:
    """Whether the union of the closed disks is connected: one or two disks
    are read off ``_touching`` directly, more by their touching graph."""
    if len(radii) < 3:
        return bool(_touching(centers[:1], radii[:1], centers, radii).all())
    touching = csr_matrix(_touching(centers, radii, centers, radii))
    return connected_components(touching, directed=False)[0] == 1


def disks_intersect(a: PlanarSet, b: PlanarSet) -> bool:
    return bool(_touching(a.centers, a.radii, b.centers, b.radii).any())


def _cover(pts: np.ndarray, centers, radii, bounds) -> np.ndarray:
    """Per point of ``pts``: how many disk groups contain it.

    Group g is the disks ``bounds[g]:bounds[g + 1]``; a point counts once
    per group that has a disk containing it.
    """
    n = len(radii)
    groups = csr_matrix((np.ones(n, dtype=np.int32), np.arange(n), bounds))
    step = max(1, _PAIRS // n)
    count = np.empty(len(pts), dtype=np.int64)
    for i in range(0, len(pts), step):
        # disks along rows, so the group sums run over contiguous rows
        inside = np.abs(centers[:, None] - pts[i : i + step]) <= radii[:, None]
        count[i : i + step] = (groups @ inside.view(np.uint8) > 0).sum(axis=0)
    return count


def _sample(u, centers, radii) -> np.ndarray:
    """Points of the sets stacked in ``centers`` and ``radii`` (one set per
    row), one per column of the draws ``u`` of shape (sets, 3, k): a disk
    drawn with probability proportional to its area (row 0), then a uniform
    point in that disk (radius row 1, angle row 2)."""
    area = np.cumsum(radii * radii, axis=1)
    target = u[:, 0] * area[:, -1:]
    # searchsorted(side="right") along each row: the areas increase
    k = (area[:, None, :] <= target[:, :, None]).sum(axis=2)
    k = np.minimum(k, radii.shape[1] - 1)
    c, r = np.take_along_axis(centers, k, 1), np.take_along_axis(radii, k, 1)
    return c + r * np.sqrt(u[:, 1]) * np.exp(1j * (u[:, 2] * 2 * np.pi))


def _by_count(sets):
    """The (centers, radii) pairs of ``sets`` grouped by disk count: per
    count, the sets' indices and their disks stacked into (sets, count)
    arrays."""
    count = np.array([len(radii) for _, radii in sets])
    for m in np.unique(count).tolist():
        idx = np.flatnonzero(count == m)
        yield idx, np.stack([sets[i][0] for i in idx]), np.stack([sets[i][1] for i in idx])


def _meets(ca, ra, cb, rb):
    """Where circle a meets circle b, seen from a's center: the direction
    phi of b's center, the half-angle alpha, and whether they meet.

    The meeting points are ca + ra exp(i (phi -+ alpha)).  |cos alpha| up to
    1 + 1e-9 counts as meeting, so every tangency is one; alpha within
    ``_SNAP`` of 0 or pi is snapped there, which makes both points one
    tangency point.
    """
    d = cb - ca
    dist = np.abs(d)
    # concentric or nearly concentric circles give an infinite or nan cosine
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cos = (ra * ra + dist * dist - rb * rb) / (2 * ra * dist)
        alpha = np.arccos(np.clip(cos, -1.0, 1.0))
    alpha[alpha < _SNAP] = 0.0
    alpha[alpha > np.pi - _SNAP] = np.pi
    return np.angle(d), alpha, (dist > 0) & (np.abs(cos) <= _MEET)


def _contained(centers, radii) -> np.ndarray:
    """Per disk along the last axis: whether another disk of its row
    contains it, ``|c_i - c_j| + r_i <= r_j`` up to the tolerance of
    ``_touching``, where of two disks that contain each other only the later
    one counts as contained."""
    m = radii.shape[-1]
    inside = (
        np.abs(centers[..., :, None] - centers[..., None, :]) + radii[..., :, None]
        <= radii[..., None, :] * _MEET
    )
    inside[..., range(m), range(m)] = False
    other = inside.swapaxes(-1, -2)
    return (inside & (np.tril(other, -1) | ~other)).any(axis=-1)


def _set_fractions(sets, x, r, owner) -> np.ndarray:
    """Exact share of each disk D(x_k, r_k) that the union of the disks of
    set ``owner[k]`` covers; ``sets`` holds (centers, radii) array pairs.

    In coordinates centred at x_k and scaled by r_k the query disk is the
    unit disk Q.  The boundary of (union and Q) is made of the set circles'
    arcs inside Q and outside the other set disks, and the unit circle's
    arcs inside some set disk, all counterclockwise.  Each circle is cut at
    +-pi and at the points where it meets another circle, each pair's
    points computed once for both circles, so every arc lies wholly inside
    or outside every other disk and its midpoint decides, and the kept arcs
    close up.  By Green's theorem the area is the sum over the kept arcs of
    1/2 [rho^2 dtheta + a rho dsin(theta) - b rho dcos(theta)] for a circle
    of center a + ib and radius rho, summed here as the arc's chord term
    1/2 p0 x p1 plus its circular segment 1/2 rho^2 (dtheta - sin dtheta):
    the arcs' end points lie in Q, so neither term grows with a far center.
    Disks inside another disk of their set, up to the tolerance of
    ``_touching``, are dropped first (the first of two that contain each
    other is kept): they leave the union unchanged, and a near-coincident
    pair would put one circle's arc midpoints within rounding of the other
    circle.  A query disk inside one set disk is covered whole and needs no
    arcs.  The queries of all sets with the same number of kept disks go
    through ``_cap_areas`` together, each row carrying its own set's disks.
    """
    kept = [None] * len(sets)
    for idx, centers, radii in _by_count(sets):
        for i, c, rho, keep in zip(idx.tolist(), centers, radii, ~_contained(centers, radii)):
            kept[i] = c[keep], rho[keep]
    area = np.full(len(x), np.pi)
    for idx, centers, radii in _by_count(kept):
        row = np.full(len(sets), -1)  # a set's row in this group
        row[idx] = np.arange(len(idx))
        k = np.flatnonzero(row[owner] >= 0)
        c, rho = centers[row[owner[k]]], radii[row[owner[k]]]
        rest = ~(np.abs(x[k, None] - c) + r[k, None] <= rho).any(axis=1)
        k, c, rho = k[rest], c[rest], rho[rest]
        n = rho.shape[1] + 1  # the set circles, then the query circle
        step = max(1, _PAIRS // (2 * n**3))
        for i in range(0, len(k), step):
            part = slice(i, i + step)
            area[k[part]] = _cap_areas(c[part], rho[part], x[k[part]], r[k[part]])
    return area / np.pi


@cache
def _circle_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n circles (shared arrays: read only)."""
    return np.triu_indices(n, 1)


def _cap_areas(centers, radii, x, r) -> np.ndarray:
    """Area of (union of the disks) and the unit disk, per (x, r), in the
    coordinates of ``_set_fractions``; row k of (k, m) ``centers`` and
    ``radii`` holds the disks of query k, and 1-d arrays serve every row."""
    k, m = len(x), radii.shape[-1]
    c = np.zeros((k, m + 1), dtype=complex)
    c[:, :m] = (centers - x[:, None]) / r[:, None]
    rho = np.ones((k, m + 1))
    rho[:, :m] = radii / r[:, None]
    # circles i < j meet at points computed from i and read from j too;
    # circles that do not meet cut at pi, an empty arc
    i, j = _circle_pairs(m + 1)
    phi, alpha, meet = _meets(c[:, i], rho[:, i], c[:, j], rho[:, j])
    turn = phi[..., None] + np.multiply.outer(alpha, [-1.0, 1.0])
    pts = c[:, i, None] + rho[:, i, None] * np.exp(1j * turn)
    cut = np.full((k, m + 1, m + 1, 2), np.pi)
    cut[:, i, j] = np.where(meet[..., None], np.remainder(turn + np.pi, 2 * np.pi) - np.pi, np.pi)
    cut[:, j, i] = np.where(meet[..., None], np.angle(pts - c[:, j, None]), np.pi)
    cut = np.concatenate([np.full((k, m + 1, 1), -np.pi), cut.reshape(k, m + 1, -1)], axis=2)
    cut.sort(axis=2)
    cut = np.concatenate([cut, np.full((k, m + 1, 1), np.pi)], axis=2)
    unit = np.exp(1j * cut)
    ends = c[..., None] + rho[..., None] * unit
    p0, p1 = ends[..., :-1], ends[..., 1:]
    mid = c[..., None] + rho[..., None] * np.exp(0.5j * (cut[..., :-1] + cut[..., 1:]))
    inside = np.abs(mid[..., None] - c[:, None, None, :m]) < rho[:, None, None, :m]
    own = np.arange(m)
    inside[:, own, :, own] = False  # a set circle does not cover its own arcs
    keep = inside.any(axis=3)
    keep[:, :m] = ~keep[:, :m] & (np.abs(mid[:, :m]) < 1)
    dtheta = np.diff(cut, axis=2)
    sin = (unit[..., :-1].conj() * unit[..., 1:]).imag
    piece = (p0.conj() * p1).imag + rho[..., None] ** 2 * (dtheta - sin)
    return 0.5 * np.where(keep, piece, 0.0).sum(axis=(1, 2))


def _pairs_of(sets, seeds, n_radii: int, n_centers: int):
    """The pairs of ``fatness_pairs`` for all ``sets`` at once, set j drawn
    from ``seeds[j]``; ``sets`` holds (centers, radii) array pairs.

    Returns the pairs' centers, radii and owning set.  The pairs come in
    groups of sets with the same disk count, and within a set in the order
    of ``fatness_pairs``.  Only the random draws are made set by set; the
    probes, sampled centers, radii and the containment test are array
    passes over each group.
    """
    if n_radii < 1 or n_centers < 1:
        raise GeometryError("sample counts must be positive")
    xs, rs, owners = [], [], []
    for idx, centers, radii in _by_count(sets):
        n_x = 9 * radii.shape[1] + n_centers
        draws = [np.random.default_rng(seeds[j]).random((3, n_centers)) for j in idx]
        u = [np.random.default_rng((seeds[j], 1)).random((n_radii, n_x)) for j in idx]
        probes = centers[:, :, None] + radii[:, :, None] * _PROBES
        sampled = _sample(np.stack(draws), centers, radii)
        x = np.concatenate([probes.reshape(len(idx), -1), sampled], axis=1)
        x0, x1, y0, y1 = _box(centers, radii)
        diam = map(math.hypot, (x1 - x0).tolist(), (y1 - y0).tolist())
        lo, hi = np.array([(math.log(1e-3 * d), math.log(2.0 * d)) for d in diam]).T
        lo, hi = lo[:, None, None], hi[:, None, None]
        r = np.exp(lo + (hi - lo) * np.stack(u))
        # D(x, r) contains the set when r reaches its farthest point from x
        far = (np.abs(x[:, :, None] - centers[:, None]) + radii[:, None]).max(axis=2)
        keep = r < far[:, None]
        xs.append(np.broadcast_to(x[:, None], r.shape)[keep])
        rs.append(r[keep])
        owners.append(np.broadcast_to(idx[:, None, None], r.shape)[keep])
    return np.concatenate(xs), np.concatenate(rs), np.concatenate(owners)


def fatness_pairs(
    s: PlanarSet, n_radii: int = 8, seed: int = 20080, n_centers: int = 24
) -> tuple[np.ndarray, np.ndarray]:
    """The (center, radius) pairs that ``fatness_estimate`` scores.

    The centers are each disk's center and eight points at 0.98 of its
    radius, then ``n_centers`` random points of s drawn from ``seed``.  The
    radii are log-uniform between 1e-3 and 2 diameters, row i of one
    (n_radii, centers) draw from substream (seed, 1) giving every center its
    i-th radius, so increasing ``n_radii`` only extends the set of pairs.
    Pairs whose disk contains s are skipped.  This is the one-set case of
    the batched pass that ``check_hs`` makes over a whole collection.
    """
    x, r, _ = _pairs_of([(s.centers, s.radii)], [seed], n_radii, n_centers)
    return x, r


def fatness_estimate(
    s: PlanarSet,
    n_samples: int = 20_000,
    n_radii: int = 8,
    seed: int = 20080,
    n_centers: int = 24,
) -> float:
    """Upper statistic for the fatness constant of ``s``: the least exact
    share of D(x, r) inside s over the pairs of ``fatness_pairs``: the
    one-set case of the batched pass of ``check_hs``.

    ``n_samples`` has no effect on the result; it is kept for callers that
    pass it, and must be positive.
    """
    if n_samples < 1:
        raise GeometryError("sample counts must be positive")
    x, r = fatness_pairs(s, n_radii, seed, n_centers)
    owner = np.zeros(len(x), dtype=np.intp)
    return float(_set_fractions([(s.centers, s.radii)], x, r, owner).min(initial=1.0))


def _overlaps(centers, radii, bounds) -> tuple[int, set[tuple[int, int]]]:
    """Greatest number of disk groups of ``_cover`` that share one point, and
    the pairs g <= h of groups that meet, both read off the touching disks.

    Groups g < h meet where a disk of g touches one of h; each group meets
    itself.  The groups containing a point p each have a disk containing p,
    and the intersection of those disks either is one of them, and holds
    its center, or has a corner where two of their circles meet.  So the
    greatest overlap is attained at a disk center or at a meeting point of
    two circles; tangency points count, within the tolerance of
    ``_touching``.
    """
    n = len(radii)
    i, j = [], []
    for rows in np.array_split(np.arange(n), -(-n * n // _PAIRS)):
        hit = _touching(centers[rows], radii[rows], centers, radii)
        row, col = np.nonzero(hit & (rows[:, None] < np.arange(n)))
        i.append(rows[row])
        j.append(col)
    i, j = np.concatenate(i), np.concatenate(j)
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    meeting = set(zip(group[i].tolist(), group[j].tolist()))
    meeting |= {(g, g) for g in range(len(bounds) - 1)}
    phi, alpha, meet = _meets(centers[i], radii[i], centers[j], radii[j])
    turn = np.exp(1j * (phi + np.multiply.outer([-1.0, 1.0], alpha)))
    crossings = (centers[i] + radii[i] * turn)[:, meet]
    pts = np.concatenate([centers, crossings.ravel()])
    return int(_cover(pts, centers, radii * _MEET, bounds).max()), meeting


def check_union_fat(
    a: PlanarSet, b: PlanarSet, tau: float, seed: int = 20080, **kwargs
) -> dict:
    """Estimate the fatness of a union of two intersecting tau-fat sets.

    The union of two intersecting tau-fat sets is tau/4-fat; the report
    records the estimate and whether it clears tau/4 minus the tolerance.
    """
    if not disks_intersect(a, b):
        raise GeometryError("sets do not intersect")
    union = PlanarSet(a.disks + b.disks)
    est = fatness_estimate(union, seed=seed, **kwargs)
    tolerance = 0.01
    return {
        "tau_union": est,
        "threshold": tau / 4 - tolerance,
        "passes": est >= tau / 4 - tolerance,
        "seed": seed,
    }


@dataclass
class HSReport:
    """Check of the fat-collection criterion's four conditions.

    The criterion's conclusion (the indexed graph is VEL-parabolic when an
    infinite such collection exists) is a theorem; this report only verifies
    the hypotheses on the finite instance, it does not re-prove anything.

    Every set is a ``PlanarSet``, a finite union of closed disks whose
    construction rejects a disconnected union, so it is compact and
    connected by construction and the report has no field for it.
    ``locally_finite`` is a guarantee, not a check: a finite family is
    locally finite, so it is always True.
    ``max_overlap`` is the exact largest number of sets that share a point,
    tangency points included; ``overlap_ok`` compares it to the claimed
    bound.  ``worst_fatness`` is the least ``fatness_estimate`` over the
    sets: exact areas on seeded (center, radius) pairs, so only it depends
    on ``seed``.
    """

    locally_finite: bool
    max_overlap: int
    overlap_bound: int
    overlap_ok: bool
    adjacency_ok: bool
    missing_adjacencies: list
    worst_fatness: float
    claimed_tau: float
    seed: int

    def all_pass(self) -> bool:
        """All four conditions: locally finite, overlap within the bound,
        adjacent sets meeting, and every set at least ``claimed_tau`` fat."""
        return (
            self.locally_finite
            and self.overlap_ok
            and self.adjacency_ok
            and self.worst_fatness >= self.claimed_tau
        )


def check_hs(
    g: RotationGraph | None,
    collection: FatCollection,
    samples: int = 50_000,
    seed: int = 20080,
) -> HSReport:
    """Verify the four fat-collection conditions for an indexed disk family.

    With ``g`` given, every vertex v of ``g`` must index a set, keyed v or
    ``("v", v)`` as ``inscribed_collection`` keys them, and adjacency is
    read off the edges of ``g``; otherwise the collection's own adjacency
    list is used.  One pass over the touching disks (``_overlaps``) decides
    which sets meet and counts the overlap exactly.  ``worst_fatness`` is
    the least ``fatness_estimate`` over the sets with 6 radii, 8 random
    centers and seed ``seed + 3 + j`` for the j-th set in ``repr`` order,
    computed in one batched pass over every set's pairs: the same pairs and
    the same bits as the per-set calls, which it does not make.  ``samples``
    has no effect on the result; it is kept for callers that pass it, and
    must be positive.  An empty collection, or an adjacency pair naming a
    key with no set, raises ``GeometryError`` before any geometry runs.
    """
    if samples < 1:
        raise GeometryError("sample counts must be positive")
    if not collection.sets:
        raise GeometryError("empty collection")
    if g is not None:
        key = [v if v in collection.sets else ("v", v) for v in g.vertices()]
        if not all(k in collection.sets for k in key):
            raise GeometryError("collection does not cover the graph's vertices")
        ends = [key[v] for v in g.dart_vertex.tolist()]
        adjacency = list(zip(ends[0::2], ends[1::2]))
    else:
        adjacency = collection.adjacency
        unknown = [k for pair in adjacency for k in pair if k not in collection.sets]
        if unknown:
            raise GeometryError(f"adjacency names {unknown[0]!r}, which has no set")
    sets = {k: PlanarSet(tuple(v)) for k, v in collection.sets.items()}

    keys = sorted(sets.keys(), key=repr)
    centers = np.concatenate([sets[k].centers for k in keys])
    radii = np.concatenate([sets[k].radii for k in keys])
    bounds = np.cumsum([0] + [len(sets[k].radii) for k in keys])
    counts_max, meeting = _overlaps(centers, radii, bounds)
    index = {k: n for n, k in enumerate(keys)}  # the groups of _overlaps
    pairs = [tuple(sorted((index[a], index[b]))) for a, b in adjacency]
    missing = [(a, b) for (a, b), pair in zip(adjacency, pairs) if pair not in meeting]

    disks = [(sets[k].centers, sets[k].radii) for k in keys]
    x, r, owner = _pairs_of(disks, [seed + 3 + j for j in range(len(keys))], 6, 8)
    worst = float(_set_fractions(disks, x, r, owner).min(initial=1.0))

    return HSReport(
        locally_finite=True,
        max_overlap=counts_max,
        overlap_bound=collection.overlap_bound,
        overlap_ok=counts_max <= collection.overlap_bound,
        adjacency_ok=not missing,
        missing_adjacencies=missing,
        worst_fatness=worst,
        claimed_tau=collection.tau,
        seed=seed,
    )
