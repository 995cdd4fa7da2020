"""Finite circle packing of disk triangulations.

Radii are solved by the angle-sum iteration: at every interior vertex the
petal angles computed from tangency triangles must sum to 2*pi.  Euclidean
packings fix the boundary radii; maximal packings in the unit disk use the
hyperbolic variant with a large fixed boundary radius standing in for
horocycles.  Layout places tangency triangles breadth-first from the root.

The hyperbolic angle uses
``tan^2(a/2) = sinh(h_u) sinh(h_w) / (sinh(h_v) sinh(h_v + h_u + h_w))``
evaluated in log space, which survives boundary radii in the hundreds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, SolverError
from .graph_core import RotationGraph, interior_face_mask, trace_faces
from .trend import classify_radius_trend

EUCLIDEAN = "euclidean_fixed_boundary_radii"
MAXIMAL = "maximal_in_unit_disk"

ANGLE_TOL = 1e-10
MAX_SWEEPS = 100_000
BOUNDARY_HYP_RADIUS = 1000.0


@dataclass
class CirclePacking:
    graph: RotationGraph
    radii: dict[int, float]
    centers: dict[int, complex | None]
    boundary_condition: str
    boundary: list[int]
    interior: list[int]
    diagnostics: dict = field(default_factory=dict)

    def root_radius(self) -> float:
        return self.radii[0]

    def extent(self) -> float:
        vals = [
            abs(c) + self.radii[v]
            for v, c in self.centers.items()
            if c is not None
        ]
        if not vals:
            raise GeometryError("no laid-out circles")
        return max(vals)


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


def _euclid_angle_sums(r, cu, cw, cv, offsets):
    a = r[cu]
    b = r[cw]
    c = r[cv]
    s = np.sqrt((a / (c + a)) * (b / (c + b)))
    angles = 2.0 * np.arcsin(np.clip(s, 0.0, 1.0))
    return np.add.reduceat(angles, offsets)


def _solve_euclidean(g, interior, boundary, boundary_radii, initial=None):
    n = g.n_vertices
    r = np.ones(n)
    for v, rad in boundary_radii.items():
        r[v] = rad
    if initial is not None:
        for v in interior:
            r[v] = initial.get(v, 1.0)
    cv, cu, cw, offsets = _flower_arrays(g, interior)
    interior_arr = np.asarray(interior, dtype=np.int64)
    degs = np.diff(g.rot_offsets)[interior_arr].astype(float)
    sin_target = np.sin(np.pi / degs)
    for sweep in range(MAX_SWEEPS):
        theta = _euclid_angle_sums(r, cu, cw, cv, offsets)
        err = float(np.max(np.abs(theta - 2 * np.pi))) if len(theta) else 0.0
        if err < ANGLE_TOL:
            return r, {"sweeps": sweep, "angle_residual": err}
        # uniform-neighbor update (Collins-Stephenson style)
        s = np.sin(theta / (2 * degs))
        s = np.clip(s, 1e-15, 1 - 1e-15)
        factor = (s * (1 - sin_target)) / (sin_target * (1 - s))
        r[interior_arr] *= factor
    raise SolverError(
        "euclidean packing did not converge",
        {"sweeps": MAX_SWEEPS, "angle_residual": err},
    )


def _log_sinh(h):
    return h + np.log1p(-np.exp(-2.0 * h)) - math.log(2.0)


def _hyp_corner(hv, hu, hw):
    """Angle at v of the hyperbolic triangle of circles v, u, w (arrays)."""
    log_t2 = _log_sinh(hu) + _log_sinh(hw) - _log_sinh(hv) - _log_sinh(hv + hu + hw)
    return 2.0 * np.arctan(np.exp(0.5 * log_t2))


def _hyp_angle(hv, hu, hw) -> float:
    return float(_hyp_corner(np.asarray(hv), np.asarray(hu), np.asarray(hw)))


def _hyp_angle_sums(h, cu, cw, cv, offsets):
    return np.add.reduceat(_hyp_corner(h[cv], h[cu], h[cw]), offsets)


def _solve_hyperbolic(g, interior, boundary, h_boundary):
    n = g.n_vertices
    h = np.full(n, 0.5)
    h[np.asarray(boundary, dtype=np.int64)] = h_boundary
    cv, cu, cw, offsets = _flower_arrays(g, interior)
    interior_arr = np.asarray(interior, dtype=np.int64)
    err = 0.0
    for sweep in range(MAX_SWEEPS):
        theta = _hyp_angle_sums(h, cu, cw, cv, offsets)
        err = float(np.max(np.abs(theta - 2 * np.pi))) if len(theta) else 0.0
        if err < ANGLE_TOL:
            return h, {"sweeps": sweep, "angle_residual": err}
        # the angle sum is decreasing in the own radius, so scaling by the
        # excess is a stable contraction toward the label
        h[interior_arr] *= theta / (2 * np.pi)
    raise SolverError(
        "hyperbolic packing did not converge",
        {"sweeps": MAX_SWEEPS, "angle_residual": err},
    )


def _boundary_vertices(g: RotationGraph, outer_face: int | None) -> list[int]:
    if g.frontier:
        return sorted(g.frontier)
    faces = trace_faces(g)
    if outer_face is None:
        non_tri = np.flatnonzero(faces.lengths != 3)
        if len(non_tri) != 1:
            raise GeometryError(
                "no designated boundary: pass outer_face or mark a frontier"
            )
        outer_face = non_tri[0]
    at = faces.offsets[outer_face]
    return np.unique(faces.vertices[at : at + faces.lengths[outer_face]]).tolist()


def _check_triangulation(g, outer_face):
    lengths = trace_faces(g).lengths
    bad = np.flatnonzero(interior_face_mask(g, outer_face) & (lengths != 3))
    if len(bad):
        raise GeometryError(f"face {bad[0]} has {lengths[bad[0]]} sides")


def _third_vertex(g: RotationGraph) -> list[int]:
    """Per dart: the vertex of its triangular face off the dart, else -1."""
    faces = trace_faces(g)
    fid = faces.face_index()
    p = np.flatnonzero(faces.lengths[fid] == 3)
    start = faces.offsets[fid[p]]
    third = np.full(g.n_darts, -1, dtype=np.int64)
    third[faces.darts[p]] = faces.vertices[start + (p - start + 2) % 3]
    return third.tolist()


def _layout(g, radii, root: int, order_hint=None):
    """Breadth-first tangency layout; faces are traced clockwise, so the third
    vertex of a face sits to the right of each directed edge."""
    third = _third_vertex(g)
    rotations, vertex = g.rotations, g.dart_vertex.tolist()
    centers: dict[int, complex] = {}
    queue: list[int] = []

    first = rotations[root][0] if order_hint is None else order_hint
    nb = vertex[first ^ 1]
    centers[root] = 0j
    centers[nb] = complex(radii[root] + radii[nb], 0.0)
    queue.extend([first, first ^ 1])
    qi = 0
    while qi < len(queue):
        d = queue[qi]
        qi += 1
        w = third[d]
        if w < 0 or w in centers:
            continue
        u = vertex[d]
        v = vertex[d ^ 1]
        cu_, cv_ = centers[u], centers[v]
        ru, rv, rw = radii[u], radii[v], radii[w]
        dd = abs(cv_ - cu_)
        if dd == 0:
            raise GeometryError("coincident centers during layout")
        a = ru + rw
        b = rv + rw
        x = (dd * dd + a * a - b * b) / (2 * dd)
        y2 = a * a - x * x
        y = math.sqrt(max(y2, 0.0))
        e = (cv_ - cu_) / dd
        cw_ = cu_ + e * complex(x, -y)  # right side of u -> v
        centers[w] = cw_
        for dart in rotations[w]:
            if vertex[dart ^ 1] in centers:
                queue.append(dart)
                queue.append(dart ^ 1)
    return centers


def pack_disk(
    g: RotationGraph,
    boundary: str = EUCLIDEAN,
    boundary_radii: float | dict[int, float] = 1.0,
    outer_face: int | None = None,
    root: int = 0,
    layout: bool = True,
    sensitivity: bool = True,
) -> CirclePacking:
    """Solve the packing radii (and optionally centers) of a disk triangulation.

    ``boundary`` selects the euclidean label with fixed boundary radii or the
    maximal packing of the unit disk (hyperbolic label with boundary radius
    1000 standing in for horocycles; sensitivity to that choice is reported
    in the diagnostics).
    """
    bverts = _boundary_vertices(g, outer_face)
    bset = set(bverts)
    interior = [v for v in g.vertices() if v not in bset]
    if not interior:
        raise GeometryError("no interior vertices to solve")
    _check_triangulation(g, outer_face)

    if boundary == EUCLIDEAN:
        if isinstance(boundary_radii, dict):
            brad = {v: float(boundary_radii[v]) for v in bverts}
        else:
            brad = {v: float(boundary_radii) for v in bverts}
        r, diag = _solve_euclidean(g, interior, bverts, brad)
        radii = {v: float(r[v]) for v in g.vertices()}
        centers = {v: None for v in g.vertices()}
        if layout:
            centers.update(_layout(g, radii, root))
        return CirclePacking(
            graph=g,
            radii=radii,
            centers=centers,
            boundary_condition=EUCLIDEAN,
            boundary=bverts,
            interior=interior,
            diagnostics=diag,
        )

    if boundary == MAXIMAL:
        h, diag = _solve_hyperbolic(g, interior, bverts, BOUNDARY_HYP_RADIUS)
        diag = dict(diag)
        if sensitivity:
            h_alt, _ = _solve_hyperbolic(g, interior, bverts, BOUNDARY_HYP_RADIUS / 2)
            diag["root_radius_sensitivity"] = abs(
                math.tanh(h[root] / 2) - math.tanh(h_alt[root] / 2)
            )
        radii_h = {v: float(h[v]) for v in g.vertices()}
        # euclidean data for the normalized packing (root at the disk center)
        centers = {v: None for v in g.vertices()}
        radii_e = {}
        if layout:
            hyp_centers = _hyperbolic_layout(g, radii_h, set(interior), root)
        else:
            hyp_centers = {root: 0j}
        for v in g.vertices():
            z = hyp_centers.get(v)
            if z is None:
                radii_e[v] = float("nan")
                continue
            d = 2.0 * math.atanh(min(abs(z), 1 - 1e-16))
            hv = radii_h[v]
            t1 = math.tanh((d + hv) / 2)
            t2 = math.tanh((d - hv) / 2)
            radii_e[v] = (t1 - t2) / 2
            mid = (t1 + t2) / 2
            centers[v] = mid * (z / abs(z)) if abs(z) > 0 else 0j
        radii_e = {v: radii_e.get(v, float("nan")) for v in g.vertices()}
        return CirclePacking(
            graph=g,
            radii=radii_e,
            centers=centers,
            boundary_condition=MAXIMAL,
            boundary=bverts,
            interior=interior,
            diagnostics={**diag, "hyperbolic_radii_root": radii_h[root]},
        )

    raise GeometryError(f"unknown boundary condition {boundary!r}")


def _mobius_to_zero(c):
    def fwd(z):
        return (z - c) / (1 - c.conjugate() * z)

    def inv(z):
        return (z + c) / (1 + c.conjugate() * z)

    return fwd, inv


def _hyperbolic_layout(g, radii_h, interior_set, root: int):
    """Poincare-disk centers for interior circles (boundary sits too deep)."""
    third = _third_vertex(g)
    rotations, vertex = g.rotations, g.dart_vertex.tolist()
    centers: dict[int, complex] = {}
    rot = [d for d in rotations[root] if vertex[d ^ 1] in interior_set]
    centers[root] = 0j
    if not rot:
        return centers
    first = rot[0]
    nb = vertex[first ^ 1]
    centers[nb] = complex(math.tanh((radii_h[root] + radii_h[nb]) / 2), 0.0)
    queue = [first, first ^ 1]
    qi = 0
    while qi < len(queue):
        d = queue[qi]
        qi += 1
        w = third[d]
        if w < 0 or w in centers or w not in interior_set:
            continue
        u = vertex[d]
        v = vertex[d ^ 1]
        fwd, inv = _mobius_to_zero(centers[u])
        vz = fwd(centers[v])
        phi = cmath.phase(vz)
        alpha = _hyp_angle(radii_h[u], radii_h[v], radii_h[w])
        rad = math.tanh((radii_h[u] + radii_h[w]) / 2)
        wz = rad * cmath.exp(1j * (phi - alpha))  # right side, clockwise faces
        centers[w] = inv(wz)
        for dart in rotations[w]:
            if vertex[dart ^ 1] in centers:
                queue.append(dart)
                queue.append(dart ^ 1)
    return centers


@dataclass
class PackingCheck:
    max_angle_residual: float
    max_tangency_error: float
    min_separation_margin: float


def verify_packing(p: CirclePacking) -> PackingCheck:
    """Re-check the packing invariants from the stored radii and centers.

    ``min_separation_margin`` is the smallest gap between two placed circles
    that are not joined by an edge (negative if they overlap), or inf when no
    such pair exists.
    """
    g = p.graph
    interior = p.interior
    cv, cu, cw, offsets = _flower_arrays(g, interior)
    if p.boundary_condition == EUCLIDEAN:
        r = np.asarray([p.radii[v] for v in g.vertices()])
        theta = _euclid_angle_sums(r, cu, cw, cv, offsets)
        angle_resid = float(np.max(np.abs(theta - 2 * np.pi)))
    else:
        angle_resid = float(p.diagnostics.get("angle_residual", math.nan))
    placed = [v for v in g.vertices() if p.centers.get(v) is not None]
    index = np.full(g.n_vertices, -1, dtype=np.int64)
    index[placed] = np.arange(len(placed))
    z = np.array([p.centers[v] for v in placed], dtype=complex)
    radius = np.array([p.radii[v] for v in placed], dtype=float)
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


def ratio_trend(ball_builder, n_list: list[int], root: int = 0) -> CpTypeReport:
    """Root-circle radius of maximal packings, tracked across ball radii.

    ``ball_builder(n)`` must return the combinatorial ball B(n) as a disk
    triangulation with its rim marked.  Each ball is packed maximally in the
    unit disk (root at the center), so rho(n) = tanh(h_root / 2) needs no
    layout; a frozen rho separates the disk-filling type from the
    plane-filling one, where rho keeps decaying.
    """
    rho = []
    for n in n_list:
        g = ball_builder(n)
        p = pack_disk(g, boundary=MAXIMAL, root=root, layout=False, sensitivity=False)
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
    tri_vertices = faces.vertices[corners].tolist()
    tri_edges = (faces.darts[corners] >> 1).tolist()
    flags = []
    incircles: dict[int, tuple[complex, float]] = {}
    for f, vs in zip(tri.tolist(), tri_vertices):
        if any(p.centers.get(v) is None for v in vs):
            continue
        incircles[f] = _incircle(*(p.centers[v] for v in vs))

    sets: dict[tuple, tuple[tuple[complex, float], ...]] = {}
    for v in g.vertices():
        if p.centers.get(v) is not None:
            sets[("v", v)] = ((p.centers[v], p.radii[v]),)
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

    data = {
        "boundary_condition": p.boundary_condition,
        "radii": {str(v): _sig12(p.radii[v]) for v in sorted(p.radii)},
        "centers": {
            str(v): [_sig12(c.real), _sig12(c.imag)]
            for v, c in sorted(p.centers.items())
            if c is not None
        },
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def packing_to_svg(p: CirclePacking, nerve: bool = False) -> str:
    placed = sorted(v for v in p.graph.vertices() if p.centers.get(v) is not None)
    if not placed:
        raise GeometryError("nothing to draw")
    ext = p.extent() * 1.02
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{-ext:.6f} {-ext:.6f} {2 * ext:.6f} {2 * ext:.6f}">'
    ]
    if nerve:
        for e in p.graph.edges():
            a, b = p.graph.edge_ends(e)
            ca, cb = p.centers.get(a), p.centers.get(b)
            if ca is None or cb is None:
                continue
            lines.append(
                f'<line x1="{ca.real:.6f}" y1="{ca.imag:.6f}" '
                f'x2="{cb.real:.6f}" y2="{cb.imag:.6f}" '
                f'stroke="#999" stroke-width="{ext / 500:.6f}"/>'
            )
    for v in placed:
        c = p.centers[v]
        lines.append(
            f'<circle cx="{c.real:.6f}" cy="{c.imag:.6f}" r="{p.radii[v]:.6f}" '
            f'fill="none" stroke="#000" stroke-width="{ext / 400:.6f}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
