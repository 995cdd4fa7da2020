"""Exact fat-set areas and overlaps for finite unions of disks.

A set is tau-fat when every disk D(x, r) centered in the set and not
containing it captures at least a tau fraction of its area inside the set.
The estimator scores a seeded family of (x, r) pairs: centers at each disk's
center, near its rim and at random points of the set, radii log-uniform.
Each pair's fraction is exact, by Green's theorem over the boundary arcs of
the set's intersection with D(x, r) (``_cap_fractions``), so the seed only
chooses the pairs.  Disks that another disk contains (up to the tangency
tolerance) are dropped before the arcs are cut: they leave the union as it
is, and a near-coincident copy would put arc midpoints within rounding of
the other circle.  The minimum over finitely many pairs is still an upper
bound on the true infimum.  Growing the radius count never increases the
estimate (prefix sampling).

The overlap of a disk family is counted exactly, at the points where the
greatest overlap of closed disks is attained (``_max_overlap``).

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
    """Finite union of closed disks; must be nonempty and connected.

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
        if not _connected(centers, radii):
            raise GeometryError("disk union is not connected")
        centers.flags.writeable = radii.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @classmethod
    def disk(cls, center: complex = 0j, radius: float = 1.0) -> "PlanarSet":
        return cls(((center, radius),))

    def bounding_box(self) -> tuple[float, float, float, float]:
        half = (1 + 1j) * self.radii
        lo, hi = self.centers - half, self.centers + half
        return lo.real.min(), hi.real.max(), lo.imag.min(), hi.imag.max()

    def diameter_bound(self) -> float:
        x0, x1, y0, y1 = self.bounding_box()
        return math.hypot(x1 - x0, y1 - y0)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership for a 1-d array of complex points."""
        return _cover(np.asarray(pts, dtype=complex), self.centers, self.radii) > 0


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


def _cover(pts: np.ndarray, centers, radii, bounds=None) -> np.ndarray:
    """Per point of ``pts``: how many disk groups contain it.

    Group g is the disks ``bounds[g]:bounds[g + 1]``, and without ``bounds``
    all disks form one group; a point counts once per group that has a disk
    containing it.
    """
    n = len(radii)
    # one group reduces with ``any``, which is about 10x cheaper per chunk
    # than the sparse group sum
    groups = None
    if bounds is not None:
        groups = csr_matrix((np.ones(n, dtype=np.int32), np.arange(n), bounds))
    step = max(1, _PAIRS // n)
    count = np.empty(len(pts), dtype=np.int64)
    for i in range(0, len(pts), step):
        # disks along rows, so the reductions run over contiguous rows
        inside = np.abs(centers[:, None] - pts[i : i + step]) <= radii[:, None]
        if groups is None:
            count[i : i + step] = inside.any(axis=0)
        else:
            count[i : i + step] = (groups @ inside.view(np.uint8) > 0).sum(axis=0)
    return count


def _sample(rng, centers, radii, bounds, per: int) -> np.ndarray:
    """``per`` points in each disk group of ``_cover``, group after group: a
    disk of the group drawn with probability proportional to its area, then
    a uniform point in that disk."""
    bounds = np.asarray(bounds)
    area = np.cumsum(radii * radii)
    before = np.concatenate([[0.0], area])[bounds]
    group = np.repeat(np.arange(len(bounds) - 1), per)
    target = before[group] + rng.random(len(group)) * np.diff(before)[group]
    k = np.searchsorted(area, target, side="right")
    k = np.clip(k, bounds[group], bounds[group + 1] - 1)
    u = rng.random(len(group))
    phi = rng.random(len(group)) * 2 * np.pi
    return centers[k] + radii[k] * np.sqrt(u) * np.exp(1j * phi)


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
    """Per disk: whether another disk contains it, ``|c_i - c_j| + r_i <=
    r_j`` up to the tolerance of ``_touching``, where of two disks that
    contain each other only the later one counts as contained."""
    inside = np.abs(centers[:, None] - centers) + radii[:, None] <= radii * _MEET
    np.fill_diagonal(inside, False)
    return (inside & (np.tril(inside.T, -1) | ~inside.T)).any(axis=1)


def _cap_fractions(centers, radii, x, r) -> np.ndarray:
    """Exact share of each disk D(x_k, r_k) that the union of the disks
    (``centers``, ``radii``) covers.

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
    Disks inside another disk, up to the tolerance of ``_touching``, are
    dropped first (the first of two that contain each other is kept): they
    leave the union unchanged, and a near-coincident pair would put one
    circle's arc midpoints within rounding of the other circle.  A query
    disk inside one set disk is covered whole and needs no arcs.
    """
    kept = ~_contained(centers, radii)
    centers, radii = centers[kept], radii[kept]
    whole = (np.abs(x[:, None] - centers) + r[:, None] <= radii).any(axis=1)
    rest = np.flatnonzero(~whole)
    area = np.full(len(x), np.pi)
    n = len(radii) + 1  # the set circles, then the query circle
    step = max(1, _PAIRS // (2 * n**3))
    for i in range(0, len(rest), step):
        k = rest[i : i + step]
        area[k] = _cap_areas(centers, radii, x[k], r[k])
    return area / np.pi


@cache
def _circle_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of n circles (shared arrays: read only)."""
    return np.triu_indices(n, 1)


def _cap_areas(centers, radii, x, r) -> np.ndarray:
    """Area of (union of the disks) and the unit disk, per (x, r), in the
    coordinates of ``_cap_fractions``."""
    k, m = len(x), len(radii)
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


def fatness_pairs(
    s: PlanarSet, n_radii: int = 8, seed: int = 20080, n_centers: int = 24
) -> tuple[np.ndarray, np.ndarray]:
    """The (center, radius) pairs that ``fatness_estimate`` scores.

    The centers are each disk's center and eight points at 0.98 of its
    radius, then ``n_centers`` random points of s drawn from ``seed``.  The
    radii are log-uniform between 1e-3 and 2 diameters, row i of one
    (n_radii, centers) draw from substream (seed, 1) giving every center its
    i-th radius, so increasing ``n_radii`` only extends the set of pairs.
    Pairs whose disk contains s are skipped.
    """
    if n_radii < 1 or n_centers < 1:
        raise GeometryError("sample counts must be positive")
    rng = np.random.default_rng(seed)
    probes = s.centers[:, None] + s.radii[:, None] * _PROBES
    sampled = _sample(rng, s.centers, s.radii, [0, len(s.radii)], n_centers)
    x = np.concatenate([probes.ravel(), sampled])
    diam = s.diameter_bound()
    lo, hi = math.log(1e-3 * diam), math.log(2.0 * diam)
    u = np.random.default_rng((seed, 1)).random((n_radii, len(x)))
    r = np.exp(lo + (hi - lo) * u)
    # D(x, r) contains s when r reaches the farthest point of s from x
    far = (np.abs(x[:, None] - s.centers) + s.radii).max(axis=1)
    keep = r < far
    return np.broadcast_to(x, r.shape)[keep], r[keep]


def fatness_estimate(
    s: PlanarSet,
    n_samples: int = 20_000,
    n_radii: int = 8,
    seed: int = 20080,
    n_centers: int = 24,
) -> float:
    """Upper statistic for the fatness constant of ``s``: the least exact
    share of D(x, r) inside s over the pairs of ``fatness_pairs``.

    ``n_samples`` has no effect on the result; it is kept for callers that
    pass it, and must be positive.
    """
    if n_samples < 1:
        raise GeometryError("sample counts must be positive")
    x, r = fatness_pairs(s, n_radii, seed, n_centers)
    return float(_cap_fractions(s.centers, s.radii, x, r).min(initial=1.0))


def _max_overlap(centers, radii, bounds) -> int:
    """Greatest number of disk groups of ``_cover`` that share one point.

    The groups containing a point p each have a disk containing p, and the
    intersection of those disks either is one of them, and holds its
    center, or has a corner where two of their circles meet.  So the
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
    phi, alpha, meet = _meets(centers[i], radii[i], centers[j], radii[j])
    turn = np.exp(1j * (phi + np.multiply.outer([-1.0, 1.0], alpha)))
    crossings = (centers[i] + radii[i] * turn)[:, meet]
    pts = np.concatenate([centers, crossings.ravel()])
    return int(_cover(pts, centers, radii * _MEET, bounds).max())


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

    ``compact_connected`` and ``locally_finite`` are guarantees, not checks:
    every set is a ``PlanarSet``, a finite union of closed disks whose
    construction rejects a disconnected union, so each set is compact and
    connected, and a finite family is locally finite.  Both are always True.
    ``max_overlap`` is the exact largest number of sets that share a point,
    tangency points included; ``overlap_ok`` compares it to the claimed
    bound.  ``worst_fatness`` is the least ``fatness_estimate`` over the
    sets: exact areas on seeded (center, radius) pairs, so only it depends
    on ``seed``.
    """

    compact_connected: bool
    locally_finite: bool
    max_overlap: int
    overlap_bound: int
    overlap_ok: bool
    adjacency_ok: bool
    missing_adjacencies: list
    worst_fatness: float
    claimed_tau: float
    seed: int
    note: str = (
        "overlap and adjacency exact; fatness exact on seeded (center, radius) "
        "pairs; the parabolicity conclusion is a theorem, not re-proved here"
    )

    def all_pass(self) -> bool:
        return (
            self.compact_connected
            and self.locally_finite
            and self.overlap_ok
            and self.adjacency_ok
        )


def check_hs(
    g: RotationGraph | None,
    collection: FatCollection,
    samples: int = 50_000,
    seed: int = 20080,
    fatness_samples: int = 4_000,
) -> HSReport:
    """Verify the four fat-collection conditions for an indexed disk family.

    With ``g`` given, every vertex v of ``g`` must index a set, keyed v or
    ``("v", v)`` as ``inscribed_collection`` keys them, and adjacency is
    read off the edges of ``g``; otherwise the collection's own adjacency
    list is used.  The overlap is counted exactly (``_max_overlap``); each
    set's fatness is ``fatness_estimate`` with 6 radii, 8 random centers and
    seed ``seed + 3 + j`` for the j-th set in ``repr`` order.  ``samples``
    and ``fatness_samples`` have no effect on the result; they are kept for
    callers that pass them, and must be positive.
    """
    if samples < 1:
        raise GeometryError("sample counts must be positive")
    sets = {k: PlanarSet(tuple(v)) for k, v in collection.sets.items()}

    if g is not None:
        key = [v if v in sets else ("v", v) for v in g.vertices()]
        if not all(k in sets for k in key):
            raise GeometryError("collection does not cover the graph's vertices")
        ends = [key[v] for v in g.dart_vertex.tolist()]
        adjacency = list(zip(ends[0::2], ends[1::2]))
    else:
        adjacency = collection.adjacency

    missing = [(a, b) for a, b in adjacency if not disks_intersect(sets[a], sets[b])]

    keys = sorted(sets.keys(), key=repr)
    centers = np.concatenate([sets[k].centers for k in keys])
    radii = np.concatenate([sets[k].radii for k in keys])
    bounds = np.cumsum([0] + [len(sets[k].radii) for k in keys])
    counts_max = _max_overlap(centers, radii, bounds)

    worst = min(
        fatness_estimate(
            sets[k], n_samples=fatness_samples, n_radii=6, seed=seed + 3 + j, n_centers=8
        )
        for j, k in enumerate(keys)
    )

    return HSReport(
        compact_connected=True,
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
