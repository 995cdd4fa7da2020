"""Monte Carlo fatness estimation for finite unions of disks.

A set is tau-fat when every disk D(x, r) centered in the set and not
containing it captures at least a tau fraction of its area inside the set.
The estimator samples centers x in the set and radii log-uniformly, and
scores every (x, r) pair on the same unit-disk sample U, as the share of the
points x + r U that lie in the set.  It is an over-estimate of the true
infimum: tests may only assert lower-bound claims with tolerance.  All
sampling is deterministic given the seed, and growing the radius count never
increases the estimate (prefix sampling).

Membership, intersection and connectivity are broadcasts over the center
and radius arrays of ``PlanarSet``, in chunks of at most ``_PAIRS`` pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import GeometryError
from .graph_core import RotationGraph
from .packing import FatCollection

Disk = tuple[complex, float]

_PAIRS = 1 << 15  # point-disk pairs per temporary: 512 KB of complex offsets
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
        touching = csr_matrix(_touching(centers, radii, centers, radii))
        if connected_components(touching, directed=False)[0] != 1:
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
    return np.abs(ca[:, None] - cb) <= (ra[:, None] + rb) * (1 + 1e-9)


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


def _unit_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` uniform points in the unit disk."""
    u = rng.random(count)
    phi = rng.random(count) * 2 * np.pi
    return np.sqrt(u) * np.exp(1j * phi)


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
    return centers[k] + radii[k] * _unit_disk(rng, len(group))


def _fractions(s: PlanarSet, x, r, unit: np.ndarray) -> np.ndarray:
    """Share of the points ``x + r * unit`` that lie in ``s``, per (x, r)."""
    step = max(1, _PAIRS // (len(unit) * len(s.radii)))
    out = np.empty(len(x))
    for i in range(0, len(x), step):
        pts = x[i : i + step, None] + r[i : i + step, None] * unit
        inside = _cover(pts.ravel(), s.centers, s.radii)
        out[i : i + step] = inside.reshape(-1, len(unit)).mean(axis=1)
    return out


def fatness_estimate(
    s: PlanarSet,
    n_samples: int = 20_000,
    n_radii: int = 8,
    seed: int = 20080,
    n_centers: int = 24,
) -> float:
    """Sampled upper statistic for the fatness constant of ``s``.

    Minimum over centers x in s and radii r (log-uniform between 1e-3 and 2
    diameters, skipping disks that contain s) of the share of the points
    x + r U in s, for one sample U of ``n_samples`` uniform points in the
    unit disk drawn from substream (seed, 2).  The centers are each disk's
    center and eight points at 0.98 of its radius, then ``n_centers`` random
    points of s.  The radii of center j come from its own substream
    (seed, 1, j), so increasing ``n_radii`` only extends the sampled set.
    """
    if n_samples < 1 or n_radii < 1 or n_centers < 1:
        raise GeometryError("sample counts must be positive")
    rng = np.random.default_rng(seed)
    probes = s.centers[:, None] + s.radii[:, None] * _PROBES
    sampled = _sample(rng, s.centers, s.radii, [0, len(s.radii)], n_centers)
    x = np.concatenate([probes.ravel(), sampled])
    diam = s.diameter_bound()
    lo, hi = math.log(1e-3 * diam), math.log(2.0 * diam)
    u = [np.random.default_rng((seed, 1, j)).random(n_radii) for j in range(len(x))]
    r = np.exp(lo + (hi - lo) * np.array(u))
    # D(x, r) contains s when r reaches the farthest point of s from x
    far = (np.abs(x[:, None] - s.centers) + s.radii).max(axis=1)
    keep = r < far[:, None]
    x = np.broadcast_to(x[:, None], r.shape)[keep]
    unit = _unit_disk(np.random.default_rng((seed, 2)), n_samples)
    return float(_fractions(s, x, r[keep], unit).min(initial=1.0))


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
    """Empirical check of the fat-collection criterion's four conditions.

    The criterion's conclusion (the indexed graph is VEL-parabolic when an
    infinite such collection exists) is a theorem; this report only verifies
    the hypotheses on the finite instance, it does not re-prove anything.

    ``compact_connected`` and ``locally_finite`` are guarantees, not checks:
    every set is a ``PlanarSet``, a finite union of closed disks whose
    construction rejects a disconnected union, so each set is compact and
    connected, and a finite family is locally finite.  Both are always True.
    ``max_overlap`` is the largest number of sets found containing one
    sampled point of the union; ``overlap_ok`` compares it to the claimed
    bound.
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
        "conditions checked empirically; the parabolicity conclusion is a "
        "theorem, not re-proved here"
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
    list is used.  The overlap is counted at ``samples // len(sets)`` points
    drawn in every set, all in one pass from the seed.
    """
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
    per = max(1, samples // len(keys))
    pts = _sample(np.random.default_rng(seed), centers, radii, bounds, per)
    counts_max = int(_cover(pts, centers, radii, bounds).max())

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
