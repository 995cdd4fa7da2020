"""Monte Carlo fatness estimation for finite unions of disks.

A set is tau-fat when every disk D(x, r) centered in the set and not
containing it captures at least a tau fraction of its area inside the set.
The estimator samples centers x in the set and radii log-uniformly, so it is
an over-estimate of the true infimum: tests may only assert lower-bound
claims with tolerance.  All sampling is deterministic given the seed, and
growing the radius count never increases the estimate (prefix sampling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError
from .graph_core import RotationGraph
from .packing import FatCollection

Disk = tuple[complex, float]


@dataclass(frozen=True)
class PlanarSet:
    """Finite union of closed disks; must be nonempty and connected."""

    disks: tuple[Disk, ...]

    def __post_init__(self):
        if not self.disks:
            raise GeometryError("empty set")
        for _, r in self.disks:
            if not (r > 0) or not math.isfinite(r):
                raise GeometryError(f"degenerate disk radius {r}")
        if not _disks_connected(self.disks):
            raise GeometryError("disk union is not connected")

    @classmethod
    def disk(cls, center: complex = 0j, radius: float = 1.0) -> "PlanarSet":
        return cls(((center, radius),))

    def bounding_box(self) -> tuple[float, float, float, float]:
        xs_lo = min(c.real - r for c, r in self.disks)
        xs_hi = max(c.real + r for c, r in self.disks)
        ys_lo = min(c.imag - r for c, r in self.disks)
        ys_hi = max(c.imag + r for c, r in self.disks)
        return xs_lo, xs_hi, ys_lo, ys_hi

    def diameter_bound(self) -> float:
        x0, x1, y0, y1 = self.bounding_box()
        return math.hypot(x1 - x0, y1 - y0)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Membership for an array of complex points."""
        inside = np.zeros(len(pts), dtype=bool)
        for c, r in self.disks:
            inside |= np.abs(pts - c) <= r
        return inside

    def contained_in_disk(self, x: complex, r: float) -> bool:
        return all(abs(c - x) + rr <= r for c, rr in self.disks)


def _touches(ca: complex, ra: float, cb: complex, rb: float) -> bool:
    # closed disks; tolerance absorbs float error at exact tangency
    return abs(ca - cb) <= (ra + rb) * (1 + 1e-9)


def _disks_connected(disks: tuple[Disk, ...]) -> bool:
    n = len(disks)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            ci, ri = disks[i]
            cj, rj = disks[j]
            if _touches(ci, ri, cj, rj):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)}) == 1


def disks_intersect(a: PlanarSet, b: PlanarSet) -> bool:
    return any(
        _touches(ca, ra, cb, rb) for ca, ra in a.disks for cb, rb in b.disks
    )


def _sample_in_set(s: PlanarSet, rng: np.random.Generator, count: int) -> np.ndarray:
    areas = np.asarray([r * r for _, r in s.disks])
    areas = areas / areas.sum()
    idx = rng.choice(len(s.disks), size=count, p=areas)
    u = rng.random(count)
    phi = rng.random(count) * 2 * np.pi
    pts = np.empty(count, dtype=complex)
    for k, (c, r) in enumerate(s.disks):
        m = idx == k
        pts[m] = c + r * np.sqrt(u[m]) * np.exp(1j * phi[m])
    return pts


def _mc_disk_fraction(
    s: PlanarSet, x: complex, r: float, rng: np.random.Generator, n_samples: int
) -> float:
    u = rng.random(n_samples)
    phi = rng.random(n_samples) * 2 * np.pi
    pts = x + r * np.sqrt(u) * np.exp(1j * phi)
    return float(np.mean(s.contains(pts)))


def fatness_estimate(
    s: PlanarSet,
    n_samples: int = 20_000,
    n_radii: int = 8,
    seed: int = 20080,
    n_centers: int = 24,
) -> float:
    """Sampled upper statistic for the fatness constant of ``s``.

    Minimum over sampled centers x in s and radii r (log-uniform between
    1e-3 and 2 diameters, skipping disks that contain s) of the Monte Carlo
    area fraction of s inside D(x, r).  Deterministic given the seed;
    radii are drawn per-center from an own substream, so increasing
    ``n_radii`` only extends the sampled set.
    """
    if n_samples < 1 or n_radii < 1 or n_centers < 1:
        raise GeometryError("sample counts must be positive")
    rng = np.random.default_rng(seed)
    # deterministic probes (disk centers and near-rim points) catch thin
    # features that area-weighted random centers would miss
    probes = []
    for c, r in s.disks:
        probes.append(c)
        for k in range(8):
            probes.append(c + 0.98 * r * np.exp(2j * np.pi * k / 8))
    centers = np.concatenate(
        [np.asarray(probes, dtype=complex), _sample_in_set(s, rng, n_centers)]
    )
    diam = s.diameter_bound()
    lo, hi = math.log(1e-3 * diam), math.log(2.0 * diam)
    best = 1.0
    for j, x in enumerate(centers):
        sub = np.random.default_rng((seed, 1, j))
        for k in range(n_radii):
            r = math.exp(lo + (hi - lo) * sub.random())
            if s.contained_in_disk(complex(x), r):
                continue
            frac = _mc_disk_fraction(
                s, complex(x), r, np.random.default_rng((seed, 2, j, k)), n_samples
            )
            best = min(best, frac)
    return best


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

    With ``g`` given, the index set must be the vertex ids of ``g`` and
    adjacency is read off its edges; otherwise the collection's own adjacency
    list is used.
    """
    sets = {k: PlanarSet(tuple(v)) for k, v in collection.sets.items()}
    compact_connected = True  # PlanarSet construction enforces both

    if g is not None:
        index_ok = all(v in sets for v in g.vertices())
        if not index_ok:
            raise GeometryError("collection does not cover the graph's vertices")
        ends = g.dart_vertex.tolist()
        adjacency = list(zip(ends[0::2], ends[1::2]))
    else:
        adjacency = collection.adjacency

    missing = [
        (a, b)
        for a, b in adjacency
        if not disks_intersect(sets[a], sets[b])
    ]

    # local finiteness: count sets meeting each cell of a bounding-box grid
    keys = sorted(sets.keys(), key=repr)
    boxes = {k: sets[k].bounding_box() for k in keys}
    x0 = min(b[0] for b in boxes.values())
    x1 = max(b[1] for b in boxes.values())
    y0 = min(b[2] for b in boxes.values())
    y1 = max(b[3] for b in boxes.values())
    grid = 8
    cell_counts = np.zeros((grid, grid), dtype=int)
    for k in keys:
        bx0, bx1, by0, by1 = boxes[k]
        i0 = int((bx0 - x0) / (x1 - x0 + 1e-300) * grid)
        i1 = int((bx1 - x0) / (x1 - x0 + 1e-300) * grid)
        j0 = int((by0 - y0) / (y1 - y0 + 1e-300) * grid)
        j1 = int((by1 - y0) / (y1 - y0 + 1e-300) * grid)
        cell_counts[
            max(i0, 0) : min(i1, grid - 1) + 1, max(j0, 0) : min(j1, grid - 1) + 1
        ] += 1
    locally_finite = bool(np.all(np.isfinite(cell_counts)))

    # overlap bound at sampled points of the union
    rng = np.random.default_rng(seed)
    per = max(1, samples // len(keys))
    counts_max = 0
    for k in keys:
        pts = _sample_in_set(sets[k], rng, per)
        counts = np.zeros(len(pts), dtype=int)
        for kk in keys:
            counts += sets[kk].contains(pts).astype(int)
        counts_max = max(counts_max, int(counts.max()))

    worst = 1.0
    for j, k in enumerate(keys):
        worst = min(
            worst,
            fatness_estimate(
                sets[k],
                n_samples=fatness_samples,
                n_radii=6,
                seed=seed + 3 + j,
                n_centers=8,
            ),
        )

    return HSReport(
        compact_connected=compact_connected,
        locally_finite=locally_finite,
        max_overlap=counts_max,
        overlap_bound=collection.overlap_bound,
        overlap_ok=counts_max <= collection.overlap_bound,
        adjacency_ok=not missing,
        missing_adjacencies=missing,
        worst_fatness=worst,
        claimed_tau=collection.tau,
        seed=seed,
    )
