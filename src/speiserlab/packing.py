"""Finite circle packing of disk triangulations.

Both boundary conditions share one path.  The label is the minimizer of
Colin de Verdiere's convex functional, whose gradient at an interior vertex
is 2 pi minus its angle sum (the petal angles of the tangency triangles).
The variables are log r for the Euclidean label, with boundary radii 1,
and log tanh(h / 2) for the hyperbolic label of the maximal packing in the
unit disk, where a large fixed boundary radius stands in for horocycles.
Each damped Newton step solves one sparse system with the analytic,
symmetric Hessian over the interior by conjugate gradients, and a
backtracking line search on the functional makes the iteration converge
from any start.  One breadth-first layout places tangency triangles from
vertex 0, by a Euclidean triangle solve or by a Mobius placement in the
Poincare disk.  ``verify_packing`` recomputes the angle sums from the
stored label with the solver's corner kernel.

The hyperbolic angle uses
``tan^2(a/2) = sinh(h_u) sinh(h_w) / (sinh(h_v) sinh(h_v + h_u + h_w))``
evaluated in log space, which survives boundary radii in the hundreds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix, diags
from scipy.sparse.linalg import cg

from .errors import GeometryError, SolverError
from .graph_core import RotationGraph, interior_face_mask, trace_faces
from .trend import classify_radius_trend

EUCLIDEAN = "euclidean_fixed_boundary_radii"
MAXIMAL = "maximal_in_unit_disk"

ANGLE_TOL = 1e-10
MAX_NEWTON_STEPS = 100
BOUNDARY_HYP_RADIUS = 1000.0
_CHUNK = 1 << 14  # corners per derivative evaluation: bounds its temporaries


@dataclass
class CirclePacking:
    """Solved packing, in arrays indexed by vertex.

    ``label`` holds the solved radius of every vertex: Euclidean for
    EUCLIDEAN, hyperbolic for MAXIMAL.  ``radii`` (float64) and ``centers``
    (complex128) are the laid-out circles, NaN where a circle is not laid
    out: for EUCLIDEAN ``radii`` is ``label`` itself, for MAXIMAL they are
    the Euclidean picture in the unit disk.  All three are read-only.
    """

    graph: RotationGraph
    radii: np.ndarray
    centers: np.ndarray
    boundary_condition: str
    boundary: list[int]
    interior: list[int]
    label: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def placed(self) -> list[int]:
        """The laid-out vertices, in increasing id."""
        return np.flatnonzero(~np.isnan(self.centers)).tolist()

    def extent(self) -> float:
        placed = self.placed()
        if not placed:
            raise GeometryError("no laid-out circles")
        z, r = self.centers.tolist(), self.radii.tolist()
        return max(abs(z[v]) + r[v] for v in placed)


def _flower_arrays(g: RotationGraph, interior: list[int]):
    """Corner index arrays (v, u, w) for all petal corners of interior vertices.

    Vertex ``v``'s corners are consecutive, from ``offsets``, one per dart
    ``d`` at ``v`` in rotation order: ``u`` across ``d``, ``w`` across the
    next dart.
    """
    cv = np.asarray(interior, dtype=np.int64)
    start, k = g.rot_offsets[cv], np.diff(g.rot_offsets)[cv]
    offsets = np.cumsum(k) - k
    d = g.rot_darts[np.arange(int(k.sum())) - np.repeat(offsets - start, k)]
    return (
        np.repeat(cv, k),
        g.dart_vertex[d ^ 1],
        g.dart_vertex[g.rot_succ[d] ^ 1],
        offsets,
    )


def _euclid_corner(r, cv, cu, cw):
    """Angle at v of the Euclidean triangle of circles v, u, w, for the
    vertex index arrays ``cv``, ``cu``, ``cw`` into the label ``r``."""
    rv, ru, rw = r[cv], r[cu], r[cw]
    s = np.sqrt((ru / (rv + ru)) * (rw / (rv + rw)))
    return 2.0 * np.arcsin(np.clip(s, 0.0, 1.0))


def _log_sinh(h):
    return h + np.log1p(-np.exp(-2.0 * h)) - math.log(2.0)


def _hyp_corner(h, cv, cu, cw):
    """Angle at v of the hyperbolic triangle of circles v, u, w, for the
    vertex index arrays ``cv``, ``cu``, ``cw`` into the label ``h``.

    log sinh is taken once per vertex and gathered per corner; only the
    corner's perimeter term needs its own.
    """
    log_sinh = _log_sinh(h)
    perimeter = _log_sinh(h[cv] + h[cu] + h[cw])
    log_t2 = log_sinh[cu] + log_sinh[cw] - log_sinh[cv] - perimeter
    return 2.0 * np.arctan(np.exp(0.5 * log_t2))


def _hyp_angle(hv, hu, hw) -> float:
    return float(_hyp_corner(np.array([hv, hu, hw], dtype=float), 0, 1, 2))


def _angle_sums(label: np.ndarray, corner, flower) -> tuple[np.ndarray, float]:
    """Angle sums at the flower's vertices and their largest error from 2 pi."""
    cv, cu, cw, offsets = flower
    theta = np.add.reduceat(corner(label, cv, cu, cw), offsets)
    return theta, float(np.max(np.abs(theta - 2 * np.pi)))


def _euclid_slopes(rv, ru, rw):
    """Derivatives of ``_euclid_corner`` in log rv, log ru and log rw.

    With rho the inradius of the triangle of centers, the angle at v grows
    with log ru by rho / (rv + ru); the angles sum to pi, which fixes the
    own term.
    """
    rho = np.sqrt(rv * ru * rw / (rv + ru + rw))
    a, b = rho / (rv + ru), rho / (rv + rw)
    return -(a + b), a, b


def _hyp_slopes(hv, hu, hw):
    """Derivatives of ``_hyp_corner`` in log tanh(h/2) of v, u and w.

    With S = hv + hu + hw and a the angle at v, the derivatives are
    -(sin a / 2) sinh(S + hv) / sinh S for v itself and
    (sin a / 2) sinh(hv + hw) / sinh S for u (hv + hu for w).  Each
    sinh x is e^x m(x) / 2 with m(x) = 1 - e^(-2x), so boundary radii in
    the hundreds stay finite.
    """
    s = hv + hu + hw
    m_s = -np.expm1(-2.0 * s)
    tan_half = np.exp(-hv) * np.sqrt(
        np.expm1(-2.0 * hu) * np.expm1(-2.0 * hw) / (-np.expm1(-2.0 * hv) * m_s)
    )
    k = tan_half / (1.0 + tan_half * tan_half) / m_s  # (sin a / 2) / m(S)
    return (
        k * np.exp(hv) * np.expm1(-2.0 * (s + hv)),
        -k * np.exp(-hu) * np.expm1(-2.0 * (hv + hw)),
        -k * np.exp(-hw) * np.expm1(-2.0 * (hv + hu)),
    )


def _hyp_var(h):
    """log tanh(h/2), accurate for large h."""
    return np.log1p(-np.exp(-h)) - np.log1p(np.exp(-h))


def _hyp_radius(x):
    """Inverse of ``_hyp_var``: 2 artanh(e^x); nan for x >= 0."""
    return np.log1p(np.exp(x)) - np.log(-np.expm1(x))


class _Label(NamedTuple):
    """A label's corner angle, its derivatives in the solver's variables,
    and the maps from the label to those variables and back."""

    corner: Callable
    slopes: Callable
    to_var: Callable
    from_var: Callable


_LABEL = {
    EUCLIDEAN: _Label(_euclid_corner, _euclid_slopes, np.log, np.exp),
    MAXIMAL: _Label(_hyp_corner, _hyp_slopes, _hyp_var, _hyp_radius),
}


def _hessian(n_vertices: int, at: np.ndarray, flower, slopes):
    """Assembler of the Hessian -d theta / dx on the interior block.

    Returns ``hessian(label)``.  ``slopes`` gives each corner's derivatives
    of the angle at v in the variables of v, u and w, evaluated in blocks of
    ``_CHUNK`` corners to bound the temporaries.  The edge from v to u
    borders the triangles of v's corner k and of the corner before it, whose
    w is u, so its entry sums du[k] and dw[k - 1] around the flower.  Row v
    holds its diagonal, then its interior neighbors in flower order.
    """
    cv, cu, cw, offsets = flower
    m = len(at)
    pos = np.full(n_vertices, -1, dtype=np.int64)
    pos[at] = np.arange(m)
    col = pos[cu]
    inner = col >= 0  # boundary variables are fixed
    indptr = np.append(0, np.cumsum(np.add.reduceat(inner, offsets, dtype=np.int64) + 1))
    diagonal = indptr[:-1]
    off = np.ones(indptr[-1], dtype=bool)
    off[diagonal] = False
    indices = np.empty(indptr[-1], dtype=np.int64)
    indices[diagonal] = np.arange(m)
    indices[off] = col[inner]
    last = np.append(offsets[1:], len(cv)) - 1

    def hessian(label):
        dv, du, dw = np.empty((3, len(cv)))
        for i in range(0, len(cv), _CHUNK):
            block = slice(i, i + _CHUNK)
            dv[block], du[block], dw[block] = slopes(
                label[cv[block]], label[cu[block]], label[cw[block]]
            )
        before = np.roll(dw, 1)
        before[offsets] = dw[last]
        du += before
        data = np.empty(len(indices))
        data[diagonal] = -np.add.reduceat(dv, offsets)
        data[off] = -du[inner]
        return csr_matrix((data, indices, indptr), shape=(m, m))

    return hessian


def _solve(g, interior, start: np.ndarray, kind: _Label):
    """Damped Newton on Colin de Verdiere's functional, from ``start``.

    Returns the label, equal to ``start`` on the boundary, and diagnostics.
    In the variables x = ``kind.to_var(label)`` the functional is
    E(x) = sum_v 2 pi x_v - sum_T F_T(x), with dF_T the triangle's angles
    times dx, so its gradient is 2 pi - theta and its Hessian -d theta / dx
    is symmetric positive definite on the interior.  Each step solves
    H d = theta - 2 pi by Jacobi-preconditioned conjugate gradients to a
    relative residual of 1e-8, and halves t until E(x + t d) - E(x) is at
    most 1e-4 t (2 pi - theta) . d, as bounded by convexity from the
    gradient at x + t d or else integrated from the gradient along the step
    by Simpson's rule.  Stops when every angle sum is within ANGLE_TOL of
    2 pi, or raises SolverError after MAX_NEWTON_STEPS steps.
    """
    flower = _flower_arrays(g, interior)
    at = np.asarray(interior, dtype=np.int64)
    hessian = _hessian(g.n_vertices, at, flower, kind.slopes)

    def evaluate(x):
        trial = start.copy()
        # outside the domain the label is nan or inf and the step is refused
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            trial[at] = kind.from_var(x)
            theta, err = _angle_sums(trial, kind.corner, flower)
        return trial, 2 * np.pi - theta, err

    def unconverged():
        return SolverError(
            "circle packing did not converge",
            {"sweeps": steps, "angle_residual": err},
        )

    x = kind.to_var(start[at])
    label, grad, err = evaluate(x)
    steps = 0
    while err >= ANGLE_TOL:
        if steps == MAX_NEWTON_STEPS:
            raise unconverged()
        # conjugate gradients suit the symmetric positive definite Hessian,
        # and every iterate is a descent direction
        h = hessian(label)
        d = cg(h, -grad, rtol=1e-8, M=diags(1 / h.diagonal()))[0]
        slope = grad @ d
        t, end = 1.0, evaluate(x + d)
        while True:
            # E is convex, so E(x + t d) - E(x) <= t (end gradient) . d
            if end[1] @ d <= 1e-4 * slope:
                break
            mid = evaluate(x + 0.5 * t * d)
            # else E(x + t d) - E(x) by Simpson's rule; false for nan
            if t / 6 * (slope + 4 * (mid[1] @ d) + end[1] @ d) <= 1e-4 * t * slope:
                break
            t, end = 0.5 * t, mid
            if t < np.finfo(float).eps:
                raise unconverged()
        x = x + t * d
        label, grad, err = end
        steps += 1
    return label, {"sweeps": steps, "angle_residual": err}


def _third_vertex(g: RotationGraph) -> list[int]:
    """Per dart: the vertex of its triangular face off the dart, else -1."""
    faces = trace_faces(g)
    fid = faces.face_index()
    p = np.flatnonzero(faces.lengths[fid] == 3)
    start = faces.offsets[fid[p]]
    third = np.full(g.n_darts, -1, dtype=np.int64)
    third[faces.darts[p]] = faces.vertices[start + (p - start + 2) % 3]
    return third.tolist()


def _layout(g, first: int, reach: float, place, allowed=None) -> dict[int, complex]:
    """Breadth-first tangency layout from dart ``first``.

    The circle at the dart's tail goes to 0, the one at its head to
    ``reach`` on the positive real axis.  Faces are traced clockwise, so the
    third circle w of a face sits to the right of each directed edge
    u -> v, and ``place(centers, u, v, w)`` returns its center.  Beyond the
    first two, only circles in ``allowed`` (all when None) are placed.
    """
    third = _third_vertex(g)
    vertex = g.dart_vertex.tolist()
    centers = {vertex[first]: 0j, vertex[first ^ 1]: complex(reach, 0.0)}
    queue = [first, first ^ 1]
    for d in queue:  # breadth-first: the queue grows while it is read
        w = third[d]
        if w < 0 or w in centers or (allowed is not None and w not in allowed):
            continue
        centers[w] = place(centers, vertex[d], vertex[d ^ 1], w)
        for dart in g.rotation(w):
            if vertex[dart ^ 1] in centers:
                queue += (dart, dart ^ 1)
    return centers


def _euclid_place(r, centers, u, v, w) -> complex:
    """Center of circle w tangent to circles u and v, right of u -> v."""
    cu, cv = centers[u], centers[v]
    dd = abs(cv - cu)
    if dd == 0:
        raise GeometryError("coincident centers during layout")
    a = r[u] + r[w]
    b = r[v] + r[w]
    x = (dd * dd + a * a - b * b) / (2 * dd)
    y = math.sqrt(max(a * a - x * x, 0.0))
    return cu + (cv - cu) / dd * complex(x, -y)


def _hyp_place(h, centers, u, v, w) -> complex:
    """Poincare-disk center of circle w tangent to u and v, right of u -> v:
    a Mobius map moves u to 0, w goes at the hyperbolic angle of the
    triangle clockwise from v's direction, and the map is undone."""
    c = centers[u]
    vz = (centers[v] - c) / (1 - c.conjugate() * centers[v])
    alpha = _hyp_angle(h[u], h[v], h[w])
    rad = math.tanh((h[u] + h[w]) / 2)
    wz = rad * cmath.exp(1j * (cmath.phase(vz) - alpha))
    return (wz + c) / (1 + c.conjugate() * wz)


def _disk_circle(z: complex, h: float) -> tuple[complex, float]:
    """Euclidean center and radius of the circle of hyperbolic radius h
    centered at z in the Poincare disk."""
    d = 2.0 * math.atanh(min(abs(z), 1 - 1e-16))
    t1 = math.tanh((d + h) / 2)
    t2 = math.tanh((d - h) / 2)
    mid = (t1 + t2) / 2
    return (mid * (z / abs(z)) if abs(z) > 0 else 0j), (t1 - t2) / 2


def pack_disk(
    g: RotationGraph, boundary: str = EUCLIDEAN, layout: bool = True
) -> CirclePacking:
    """Solve the packing label, and lay the circles out unless ``layout`` is
    False, for a disk triangulation whose boundary is its frontier.

    ``boundary`` selects the Euclidean label with boundary radii 1 or the
    maximal packing of the unit disk (hyperbolic label with boundary radius
    ``BOUNDARY_HYP_RADIUS`` standing in for horocycles).  The layout starts
    at vertex 0; in the maximal packing it puts vertex 0 at the disk center,
    even without ``layout``, and places no boundary circle.  A graph with no
    frontier raises GeometryError.
    """
    if not g.frontier:
        raise GeometryError("no designated boundary: mark a frontier")
    bverts = sorted(g.frontier)
    bset = set(bverts)
    interior = [v for v in g.vertices() if v not in bset]
    if not interior:
        raise GeometryError("no interior vertices to solve")
    lengths = trace_faces(g).lengths
    bad = np.flatnonzero(interior_face_mask(g) & (lengths != 3))
    if len(bad):
        raise GeometryError(f"face {bad[0]} has {lengths[bad[0]]} sides")

    if boundary == EUCLIDEAN:
        start = np.ones(g.n_vertices)
    elif boundary == MAXIMAL:
        start = np.full(g.n_vertices, 0.5)
        start[bverts] = BOUNDARY_HYP_RADIUS
    else:
        raise GeometryError(f"unknown boundary condition {boundary!r}")
    label, diag = _solve(g, interior, start, _LABEL[boundary])
    label.flags.writeable = False
    r = label.tolist()

    centers = np.full(g.n_vertices, complex(math.nan, math.nan))
    if boundary == EUCLIDEAN:
        radii = label
        if layout:
            first = g.rotation(0)[0]
            reach = r[0] + r[g.dart_vertex.item(first ^ 1)]
            placed = _layout(g, first, reach, partial(_euclid_place, r))
            centers[list(placed)] = list(placed.values())
    else:
        diag["hyperbolic_radii_root"] = r[0]
        # the boundary circles sit too deep to lay out
        inner = set(interior)
        darts = [d for d in g.rotation(0) if g.dart_vertex.item(d ^ 1) in inner]
        placed = {0: 0j}
        if layout and darts:
            reach = math.tanh((r[0] + r[g.dart_vertex.item(darts[0] ^ 1)]) / 2)
            placed = _layout(g, darts[0], reach, partial(_hyp_place, r), inner)
        radii = np.full(g.n_vertices, math.nan)
        for v, z in placed.items():
            centers[v], radii[v] = _disk_circle(z, r[v])
        radii.flags.writeable = False
    centers.flags.writeable = False
    return CirclePacking(
        graph=g,
        radii=radii,
        centers=centers,
        boundary_condition=boundary,
        boundary=bverts,
        interior=interior,
        label=label,
        diagnostics=diag,
    )


@dataclass
class PackingCheck:
    max_angle_residual: float
    max_tangency_error: float
    min_separation_margin: float


def verify_packing(p: CirclePacking) -> PackingCheck:
    """Re-check the packing invariants from the stored label and centers.

    The angle residual is recomputed from ``label`` with the solver's
    corner kernel for either boundary condition.  ``min_separation_margin``
    is the smallest gap between two placed circles that are not joined by an
    edge (negative if they overlap), or inf when no such pair exists.
    """
    g = p.graph
    flower = _flower_arrays(g, p.interior)
    _, angle_resid = _angle_sums(p.label, _LABEL[p.boundary_condition].corner, flower)
    placed = p.placed()
    index = np.full(g.n_vertices, -1, dtype=np.int64)
    index[placed] = np.arange(len(placed))
    z, radius = p.centers[placed], p.radii[placed]
    ends = index[g.dart_vertex]
    a, b = ends[0::2], ends[1::2]
    both = (a >= 0) & (b >= 0)
    a, b = a[both], b[both]
    want = radius[a] + radius[b]
    tang = float(np.max(np.abs(_distance(z, a, b) - want) / want, initial=0.0))
    adjacent = np.unique(np.minimum(a, b) * len(placed) + np.maximum(a, b))
    return PackingCheck(
        max_angle_residual=angle_resid,
        max_tangency_error=tang,
        min_separation_margin=_min_separation(z, radius, adjacent),
    )


def _distance(z: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``|z[i] - z[j]|`` with ``hypot``, the bits of Python's ``abs``."""
    d = z[i] - z[j]
    return np.hypot(d.real, d.imag)


def _min_separation(z: np.ndarray, radius: np.ndarray, adjacent: np.ndarray) -> float:
    """Smallest gap ``|z_i - z_j| - r_i - r_j`` over the pairs i < j whose
    code ``i n + j`` is not in ``adjacent``, or inf when there is none.

    A gap below m needs ``|z_i - z_j| < m + 2 r_max``.  So once some pair
    within a search radius gives a gap m0, the pairs within
    ``m0 + 2 r_max`` contain every pair with a smaller gap, and their
    minimum is exact.  The first search radius, 2 r_max, doubles until it
    reaches a non-adjacent pair or spans every pair.
    """
    # imported here: scipy.spatial takes about 0.15 s to import, and only
    # verification needs it
    from scipy.spatial import cKDTree

    n = len(z)
    if n < 2:
        return math.inf
    tree = cKDTree(np.column_stack([z.real, z.imag]))
    r_max = float(radius.max())
    reach = 2.0 * r_max
    span = 2.0 * float(np.abs(z - z[0]).max())

    def gaps(within: float) -> np.ndarray:
        i, j = tree.query_pairs(within, output_type="ndarray").T
        free = ~np.isin(i * n + j, adjacent)
        i, j = i[free], j[free]
        return _distance(z, i, j) - (radius[i] + radius[j])

    found = gaps(reach)
    while not len(found) and reach < span:
        reach = min(2.0 * reach, span) if reach > 0 else span
        found = gaps(reach)
    if not len(found):
        return math.inf
    m0 = float(found.min())
    if m0 + 2.0 * r_max > reach:
        found = gaps(m0 + 2.0 * r_max)
    return min(m0, float(found.min(initial=math.inf)))


# -- cp-type ratio trend ----------------------------------------------------


@dataclass
class CpTypeReport:
    radii_list: list[int]
    rho: list[float]
    fit: dict
    verdict: str

    def to_dict(self) -> dict:
        return {
            "radii_list": self.radii_list,
            "rho": self.rho,
            "fit": self.fit,
            "verdict": self.verdict,
        }


def ratio_trend(ball_builder, n_list: list[int]) -> CpTypeReport:
    """Root-circle radius of maximal packings, tracked across ball radii.

    ``ball_builder(n)`` must return the combinatorial ball B(n) as a disk
    triangulation with its rim marked and its root as vertex 0.  Each ball is
    packed maximally in the unit disk (root at the center), so
    rho(n) = tanh(h_root / 2) needs no layout; a frozen rho separates the
    disk-filling type from the plane-filling one, where rho keeps decaying.
    """
    rho = []
    for n in n_list:
        g = ball_builder(n)
        p = pack_disk(g, boundary=MAXIMAL, layout=False)
        rho.append(math.tanh(p.diagnostics["hyperbolic_radii_root"] / 2))
    fit = classify_radius_trend(n_list, rho)
    return CpTypeReport(
        radii_list=list(n_list), rho=rho, fit=fit, verdict=fit["verdict"]
    )


# -- inscribed-disk fat collection ------------------------------------------


@dataclass
class FatCollection:
    """Indexed family of disks / two-disk unions with adjacency structure.

    ``sets`` maps an index (("v", vertex) or ("e", edge)) to a tuple of
    (center, radius) disks; ``adjacency`` lists index pairs that must
    intersect; ``tau`` and ``overlap_bound`` are the claimed constants.
    """

    sets: dict[tuple, tuple[tuple[complex, float], ...]]
    adjacency: list[tuple[tuple, tuple]]
    tau: float
    overlap_bound: int
    flags: list[str] = field(default_factory=list)


def _incircle(a: complex, b: complex, c: complex) -> tuple[complex, float]:
    la = abs(b - c)
    lb = abs(c - a)
    lc = abs(a - b)
    s = la + lb + lc
    center = (la * a + lb * b + lc * c) / s
    area = abs((b - a).real * (c - a).imag - (b - a).imag * (c - a).real) / 2
    return center, 2 * area / s


def inscribed_collection(p: CirclePacking) -> FatCollection:
    """Packed disks per vertex plus incircle unions per edge.

    The incircle of a tangency triangle touches each side at the packing
    tangency point, so the two incircles across an edge meet there and their
    union is connected.  Indexed by the midpoint-subdivision combinatorics;
    the claimed constants are tau = 1/16 and at most 7-fold overlap.
    """
    g = p.graph
    faces = trace_faces(g)
    owner = faces.face_of().tolist()
    tri = np.flatnonzero(faces.lengths == 3)
    corners = faces.offsets[tri][:, None] + np.arange(3)
    tri_vertices = faces.vertices[corners]
    tri_edges = (faces.darts[corners] >> 1).tolist()
    laid = ~np.isnan(p.centers[tri_vertices]).any(axis=1)
    z, r = p.centers.tolist(), p.radii.tolist()
    flags = []
    incircles: dict[int, tuple[complex, float]] = {}
    for f, vs in zip(tri[laid].tolist(), tri_vertices[laid].tolist()):
        incircles[f] = _incircle(*(z[v] for v in vs))

    sets: dict[tuple, tuple[tuple[complex, float], ...]] = {
        ("v", v): ((z[v], r[v]),) for v in p.placed()
    }
    for e in g.edges():
        f1, f2 = owner[2 * e], owner[2 * e + 1]
        disks = tuple(
            incircles[f] for f in sorted({f1, f2}) if f in incircles
        )
        if not disks:
            continue
        if len(disks) == 1:
            flags.append(f"edge {e} has a single inscribed disk (boundary)")
        sets[("e", e)] = disks

    ends = g.dart_vertex.tolist()
    adjacency = []
    for e in g.edges():
        if ("e", e) not in sets:
            continue
        for x in ends[2 * e : 2 * e + 2]:
            if ("v", x) in sets:
                adjacency.append((("v", x), ("e", e)))
    for edges in tri_edges:
        es = [e for e in edges if ("e", e) in sets]
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                adjacency.append((("e", es[i]), ("e", es[j])))
    return FatCollection(
        sets=sets,
        adjacency=adjacency,
        tau=1.0 / 16.0,
        overlap_bound=7,
        flags=flags,
    )


# -- serialization ------------------------------------------------------------


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def packing_to_json(p: CirclePacking) -> str:
    """Radii and centers at 12 significant digits, sorted by vertex id."""
    import json

    z = p.centers.tolist()
    data = {
        "boundary_condition": p.boundary_condition,
        "radii": {str(v): _sig12(x) for v, x in enumerate(p.radii.tolist())},
        "centers": {str(v): [_sig12(z[v].real), _sig12(z[v].imag)] for v in p.placed()},
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def packing_to_svg(p: CirclePacking, nerve: bool = False) -> str:
    placed = p.placed()
    if not placed:
        raise GeometryError("nothing to draw")
    ext = p.extent() * 1.02
    z, r = p.centers.tolist(), p.radii.tolist()
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-ext:.6f} {-ext:.6f} {2 * ext:.6f} {2 * ext:.6f}">'
    ]
    if nerve:
        drawn = set(placed)
        for e in p.graph.edges():
            a, b = p.graph.edge_ends(e)
            if a in drawn and b in drawn:
                lines.append(
                    f'<line x1="{z[a].real:.6f}" y1="{z[a].imag:.6f}" '
                    f'x2="{z[b].real:.6f}" y2="{z[b].imag:.6f}" '
                    f'stroke="#999" stroke-width="{ext / 500:.6f}"/>'
                )
    for v in placed:
        lines.append(
            f'<circle cx="{z[v].real:.6f}" cy="{z[v].imag:.6f}" r="{r[v]:.6f}" '
            f'fill="none" stroke="#000" stroke-width="{ext / 400:.6f}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
