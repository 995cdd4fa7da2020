"""Finite circle packing of disk triangulations.

Both boundary conditions share one path.  The label is the minimizer of
Colin de Verdiere's convex functional, whose gradient at an interior vertex
is 2 pi minus its angle sum (the petal angles of the tangency triangles).
The variables are log r for the Euclidean label, with boundary radii 1,
and log tanh(h / 2) for the hyperbolic label of the maximal packing in the
unit disk, where a large fixed boundary radius stands in for horocycles.
Each damped Newton step solves one sparse system with the analytic,
symmetric Hessian over the interior, and a backtracking line search on the
functional makes the iteration converge from any start.  The Hessian's
sparsity pattern is fixed by the graph, so one CSR matrix per solve is
refilled in place at every step.  The system is solved by Jacobi-
preconditioned conjugate gradients written in this module (``_pcg``), which
repeats scipy's ``cg`` operation for operation without its per-iteration
operator wrappers; hitting its iteration cap raises SolverError.
The layout grows from two tangent circles at vertex 0 in rounds: each round
places, in one array operation, every circle whose tangency triangle has
its other two circles placed, by a Euclidean triangle solve or by a Mobius
placement in the Poincare disk.  ``verify_packing`` recomputes the angle
sums from the stored label with the solver's corner kernel.

The hyperbolic angle uses
``tan^2(a/2) = sinh(h_u) sinh(h_w) / (sinh(h_v) sinh(h_v + h_u + h_w))``
evaluated in log space, which survives boundary radii in the hundreds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from .errors import GeometryError, SolverError
from .graph_core import RotationGraph, trace_faces
from .trend import classify_radius_trend

EUCLIDEAN = "euclidean_fixed_boundary_radii"
MAXIMAL = "maximal_in_unit_disk"

ANGLE_TOL = 1e-10
MAX_NEWTON_STEPS = 100
MAX_CG_PER_UNKNOWN = 10  # conjugate-gradient cap per Newton step, as in scipy
BOUNDARY_HYP_RADIUS = 1000.0
_CHUNK = 1 << 14  # corners per derivative evaluation: bounds its temporaries
_REACH_SLACK = 1e-9  # relative widening of the separation queries
_EXP_ZERO = 746.0  # e^-y rounds to 0 for y >= 746


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
        return float(np.max(np.abs(self.centers[placed]) + self.radii[placed]))


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


def _exp_neg(y):
    """e^-y, with the entries at or past ``_EXP_ZERO`` set to the 0 they
    round to: numpy's exp takes a slow path on each underflow, which the
    boundary radius gives at every boundary vertex."""
    out = np.zeros_like(y)
    nonzero = y < _EXP_ZERO
    out[nonzero] = np.exp(-y[nonzero])
    return out


def _log_sinh(h):
    return h + np.log1p(-_exp_neg(2.0 * h)) - math.log(2.0)


def _hyp_corner(h, cv, cu, cw):
    """Angle at v of the hyperbolic triangle of circles v, u, w, for the
    vertex index arrays ``cv``, ``cu``, ``cw`` into the label ``h``.

    log sinh is taken once per vertex and gathered per corner; only the
    corner's perimeter term needs its own.
    """
    return _hyp_corner_from(h, _log_sinh(h), cv, cu, cw)


def _hyp_corner_from(h, log_sinh, cv, cu, cw):
    """``_hyp_corner`` with the label's ``_log_sinh`` already taken."""
    perimeter = _log_sinh(h[cv] + h[cu] + h[cw])
    log_t2 = log_sinh[cu] + log_sinh[cw] - log_sinh[cv] - perimeter
    return 2.0 * np.arctan(np.exp(0.5 * log_t2))


def _angle_sums(label: np.ndarray, corner, flower) -> tuple[np.ndarray, float]:
    """Angle sums at the flower's vertices and their largest error from 2 pi."""
    cv, cu, cw, offsets = flower
    theta = np.add.reduceat(corner(label, cv, cu, cw), offsets)
    return theta, float(np.max(np.abs(theta - 2 * np.pi)))


def _chunks(n: int) -> list[slice]:
    """Blocks of at most ``_CHUNK`` corners covering ``range(n)``."""
    return [slice(i, i + _CHUNK) for i in range(0, n, _CHUNK)]


def _euclid_slopes(r, cv, cu, cw, nxt):
    """Derivatives of ``_euclid_corner`` in log rv, log ru and log rw, per
    corner of the flower arrays ``cv``, ``cu``, ``cw`` (``nxt`` is unused).

    With rho the inradius of the triangle of centers, the angle at v grows
    with log ru by rho / (rv + ru); the angles sum to pi, which fixes the
    own term.
    """
    dv, du, dw = np.empty((3, len(cv)))
    for b in _chunks(len(cv)):
        rv, ru, rw = r[cv[b]], r[cu[b]], r[cw[b]]
        rho = np.sqrt(rv * ru * rw / (rv + ru + rw))
        du[b], dw[b] = rho / (rv + ru), rho / (rv + rw)
        dv[b] = -(du[b] + dw[b])
    return dv, du, dw


def _hyp_slopes(h, cv, cu, cw, nxt):
    """Derivatives of ``_hyp_corner`` in log tanh(h/2) of v, u and w, per
    corner of the flower arrays ``cv``, ``cu``, ``cw``; ``nxt`` is each
    corner's successor in its flower, whose u is this corner's w.

    With S = hv + hu + hw and a the angle at v, the derivatives are
    -(sin a / 2) sinh(S + hv) / sinh S for v itself and
    (sin a / 2) sinh(hv + hw) / sinh S for u (hv + hu for w).  Each
    sinh x is e^x m(x) / 2 with m(x) = 1 - e^(-2x), so boundary radii in
    the hundreds stay finite.  The terms of one vertex are taken once per
    vertex, and m(hv + hu) once per corner: the corner before reads it as
    its m(hv + hw).
    """
    m2 = np.expm1(-2.0 * h)
    shrink = _exp_neg(h)
    # e^h overflows at the boundary radius, and is read at interior v only
    with np.errstate(over="ignore"):
        grow = np.exp(h)
    hvu, pair = np.empty((2, len(cv)))  # hv + hu and expm1(-2 (hv + hu))
    for b in _chunks(len(cv)):
        hvu[b] = h[cv[b]] + h[cu[b]]
        pair[b] = np.expm1(-2.0 * hvu[b])
    dv, du, dw = np.empty((3, len(cv)))
    for b in _chunks(len(cv)):
        v, u, w = cv[b], cu[b], cw[b]
        s = hvu[b] + h[w]
        m_s = -np.expm1(-2.0 * s)
        tan_half = shrink[v] * np.sqrt(m2[u] * m2[w] / (-m2[v] * m_s))
        k = tan_half / (1.0 + tan_half * tan_half) / m_s  # (sin a / 2) / m(S)
        dv[b] = k * grow[v] * np.expm1(-2.0 * (s + h[v]))
        neg_k = -k
        du[b] = neg_k * shrink[u] * pair[nxt[b]]
        dw[b] = neg_k * shrink[w] * pair[b]
    return dv, du, dw


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

    Returns ``hessian(label)``.  The sparsity pattern is fixed, so one CSR
    matrix is allocated here and each call refills its values in place.
    ``slopes`` gives each corner's derivatives of the angle at v in the
    variables of v, u and w.  The edge from v to u borders the triangles of
    v's corner k and of the corner before it, whose w is u, so its entry
    sums du[k] and dw[k - 1] around the flower.  Row v holds its diagonal,
    then its interior neighbors in flower order.
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
    # each corner's predecessor and successor around its flower
    prev = np.arange(len(cv)) - 1
    prev[offsets] = np.append(offsets[1:], len(cv)) - 1
    nxt = np.empty_like(prev)
    nxt[prev] = np.arange(len(cv))
    h = csr_matrix((np.zeros(indptr[-1]), indices, indptr), shape=(m, m))

    def hessian(label):
        dv, du, dw = slopes(label, cv, cu, cw, nxt)
        du += dw[prev]
        h.data[diagonal] = -np.add.reduceat(dv, offsets)
        h.data[off] = -du[inner]
        return h

    return hessian


def _pcg(h, b: np.ndarray, inv_diag: np.ndarray, maxiter: int):
    """Solve ``h x = b`` from x = 0 by conjugate gradients, preconditioned
    by ``inv_diag`` times the residual, to a residual norm below 1e-8 |b|.

    Returns x, the iterations taken, and whether the residual got there
    within ``maxiter`` iterations.  The operations and their order are those
    of ``scipy.sparse.linalg.cg(h, b, rtol=1e-8, M=diags(inv_diag))`` in
    scipy 1.17, so the iterates agree to the bit, without its per-iteration
    operator wrappers.  ``b`` must be nonzero.
    """
    x = np.zeros(len(b))
    r = b.copy()
    z, step = np.empty((2, len(b)))  # reused buffers
    atol = 1e-8 * math.sqrt(np.dot(b, b))
    for iteration in range(maxiter):
        if math.sqrt(np.dot(r, r)) < atol:
            return x, iteration, True
        np.multiply(inv_diag, r, out=z)
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = h @ p
        alpha = rho / np.dot(p, q)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=step)
        rho_prev = rho
    return x, maxiter, False


def _solve(g, interior, start: np.ndarray, kind: _Label):
    """Damped Newton on Colin de Verdiere's functional, from ``start``.

    Returns the label, equal to ``start`` on the boundary, and diagnostics.
    In the variables x = ``kind.to_var(label)`` the functional is
    E(x) = sum_v 2 pi x_v - sum_T F_T(x), with dF_T the triangle's angles
    times dx, so its gradient is 2 pi - theta and its Hessian -d theta / dx
    is symmetric positive definite on the interior.  Each step solves
    H d = theta - 2 pi by Jacobi-preconditioned conjugate gradients
    (``_pcg``) to a relative residual of 1e-8, and halves t until
    E(x + t d) - E(x) is at most 1e-4 t (2 pi - theta) . d, as bounded by
    convexity from the gradient at x + t d or else integrated from the
    gradient along the step by Simpson's rule.  Stops when every angle sum
    is within ANGLE_TOL of 2 pi.  Raises SolverError after MAX_NEWTON_STEPS
    steps, or when conjugate gradients take MAX_CG_PER_UNKNOWN iterations
    per interior vertex in one step.  ``cg_iterations`` in the diagnostics
    totals the conjugate-gradient iterations over all steps.
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
        return SolverError("circle packing did not converge", diagnostics())

    def diagnostics():
        return {"sweeps": steps, "angle_residual": err, "cg_iterations": cg_iterations}

    x = kind.to_var(start[at])
    label, grad, err = evaluate(x)
    steps = cg_iterations = 0
    while err >= ANGLE_TOL:
        if steps == MAX_NEWTON_STEPS:
            raise unconverged()
        # conjugate gradients suit the symmetric positive definite Hessian,
        # and every iterate is a descent direction
        h = hessian(label)
        # each row starts with its diagonal entry
        inv_diagonal = 1 / h.data[h.indptr[:-1]]
        d, iterations, solved = _pcg(h, -grad, inv_diagonal, MAX_CG_PER_UNKNOWN * len(at))
        cg_iterations += iterations
        if not solved:
            raise unconverged()
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
    return label, diagnostics()


def _layout(g, first: int, reach: float, place, allowed=None) -> np.ndarray:
    """Tangency layout from dart ``first``, in rounds: complex centers,
    NaN where a circle is not placed.

    The circle at the dart's tail goes to 0, the one at its head to
    ``reach`` on the positive real axis.  Faces are traced clockwise, so the
    third circle w of a triangular face sits to the right of each directed
    edge u -> v.  Each round takes the darts u -> v with both ends placed
    whose w is not, and places every such w once, from its lowest dart:
    ``place(centers, u, v, w)`` returns their centers for index arrays
    ``u``, ``v``, ``w``.  Beyond the first two, only circles where the mask
    ``allowed`` is true (all when None) are placed.
    """
    tail, darts = g.dart_vertex, np.arange(g.n_darts)
    # the face walk d -> rot_succ[d ^ 1]; its second step ends at w
    step = g.rot_succ[darts ^ 1]
    apex = step[step]
    d = np.flatnonzero(step[apex] == darts)
    if allowed is not None:
        d = d[allowed[tail[apex[d]]]]
    u, v, w = tail[d], tail[d ^ 1], tail[apex[d]]
    centers = np.full(g.n_vertices, complex(math.nan, math.nan))
    centers[tail[first]], centers[tail[first ^ 1]] = 0.0, reach
    placed = ~np.isnan(centers)
    while True:
        ready = np.flatnonzero(placed[u] & placed[v] & ~placed[w])
        if not len(ready):
            return centers
        # unique keeps each w's first, that is lowest, dart
        new, lowest = np.unique(w[ready], return_index=True)
        ready = ready[lowest]
        centers[new] = place(centers, u[ready], v[ready], new)
        placed[new] = True


def _euclid_place(r, centers, u, v, w) -> np.ndarray:
    """Centers of circles w tangent to circles u and v, right of u -> v."""
    cu, cv = centers[u], centers[v]
    dd = np.abs(cv - cu)
    if not dd.all():
        raise GeometryError("coincident centers during layout")
    a = r[u] + r[w]
    b = r[v] + r[w]
    x = (dd * dd + a * a - b * b) / (2 * dd)
    y = np.sqrt(np.maximum(a * a - x * x, 0.0))
    return cu + (cv - cu) / dd * (x - 1j * y)


def _hyp_place(h, log_sinh, centers, u, v, w) -> np.ndarray:
    """Poincare-disk centers of circles w tangent to u and v, right of
    u -> v: a Mobius map moves u to 0, w goes at the hyperbolic angle of the
    triangle clockwise from v's direction, and the map is undone.
    ``log_sinh`` is ``_log_sinh(h)``, taken once per layout."""
    c = centers[u]
    vz = (centers[v] - c) / (1 - c.conj() * centers[v])
    alpha = _hyp_corner_from(h, log_sinh, u, v, w)
    rad = np.tanh((h[u] + h[w]) / 2)
    wz = rad * np.exp(1j * (np.angle(vz) - alpha))
    return (wz + c) / (1 + c.conj() * wz)


def _disk_circle(z: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean centers and radii of the circles of hyperbolic radii h
    centered at z in the Poincare disk; NaN where z is NaN."""
    s = np.abs(z)
    d = 2.0 * np.arctanh(np.minimum(s, 1 - 1e-16))
    t1 = np.tanh((d + h) / 2)
    t2 = np.tanh((d - h) / 2)
    mid = (t1 + t2) / 2
    return mid * (z / np.where(s > 0, s, 1.0)), (t1 - t2) / 2


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
    on_rim = np.zeros(g.n_vertices, dtype=bool)
    on_rim[bverts] = True
    interior = np.flatnonzero(~on_rim).tolist()
    if not interior:
        raise GeometryError("no interior vertices to solve")
    # every face at an interior vertex must be a triangle: from each dart out
    # of an interior vertex, the face walk d -> rot_succ[d ^ 1] returns in
    # three steps
    d = np.flatnonzero(~on_rim[g.dart_vertex])
    turn = g.rot_succ[g.rot_succ[g.rot_succ[d ^ 1] ^ 1] ^ 1]
    if (turn != d).any():
        faces = trace_faces(g)
        f = faces.face_of()[d[turn != d]].min()
        raise GeometryError(f"face {f} has {faces.lengths[f]} sides")

    if boundary == EUCLIDEAN:
        start = np.ones(g.n_vertices)
    elif boundary == MAXIMAL:
        start = np.full(g.n_vertices, 0.5)
        start[bverts] = BOUNDARY_HYP_RADIUS
    else:
        raise GeometryError(f"unknown boundary condition {boundary!r}")
    label, diag = _solve(g, interior, start, _LABEL[boundary])
    label.flags.writeable = False

    centers = np.full(g.n_vertices, complex(math.nan, math.nan))
    around_root = g.rot_darts[g.rot_offsets[0] : g.rot_offsets[1]]
    if boundary == EUCLIDEAN:
        radii = label
        if layout:
            first = around_root[0]
            reach = label[0] + label[g.dart_vertex[first ^ 1]]
            centers = _layout(g, first, reach, partial(_euclid_place, label))
    else:
        # the boundary circles sit too deep to lay out
        darts = around_root[~on_rim[g.dart_vertex[around_root ^ 1]]]
        if layout and len(darts):
            reach = math.tanh((label[0] + label[g.dart_vertex[darts[0] ^ 1]]) / 2)
            place = partial(_hyp_place, label, _log_sinh(label))
            centers = _layout(g, darts[0], reach, place, ~on_rim)
        else:
            centers[0] = 0.0
        centers, radii = _disk_circle(centers, label)
        radii.flags.writeable = False
    centers.flags.writeable = False
    return CirclePacking(
        graph=g,
        radii=radii,
        centers=centers,
        boundary_condition=boundary,
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

    A pair with r_j <= r_i and a gap below m lies within m + 2 r_i of z_i.
    So once some pair gives a gap m0, querying each circle i at radius
    m0 + 2 r_i, plus a relative slack of ``_REACH_SLACK`` against rounding,
    and keeping the partners j with r_j <= r_i, finds every pair with a
    smaller gap, and their minimum is exact.  m0 comes from each circle's
    nearest centers: one more than the most neighbors of any circle leaves
    each circle a non-adjacent one among them, unless they span every pair.
    """
    # imported here: scipy.spatial takes about 0.15 s to import, and only
    # verification needs it
    from scipy.spatial import cKDTree

    n = len(z)
    if n < 2:
        return math.inf
    pts = np.column_stack([z.real, z.imag])
    tree = cKDTree(pts)

    def gaps(i, j) -> np.ndarray:
        i, j = np.minimum(i, j), np.maximum(i, j)
        free = (i != j) & ~np.isin(i * n + j, adjacent)
        i, j = i[free], j[free]
        return _distance(z, i, j) - (radius[i] + radius[j])

    degree = np.bincount(np.concatenate([adjacent // n, adjacent % n]), minlength=n)
    k = min(n, int(degree.max(initial=0)) + 2)
    near = tree.query(pts, k=k)[1]
    found = gaps(np.repeat(np.arange(n), k), near.ravel())
    if not len(found):
        return math.inf
    m0 = float(found.min())
    reach = 2.0 * radius + m0
    reach = np.maximum(reach + _REACH_SLACK * (2.0 * radius + abs(m0)), 0.0)
    partners = tree.query_ball_point(pts, reach, return_sorted=False)
    counts = np.fromiter(map(len, partners), dtype=np.int64, count=n)
    i = np.repeat(np.arange(n), counts)
    j = np.fromiter(chain.from_iterable(partners), dtype=np.int64, count=int(counts.sum()))
    # each pair once: from the larger circle, or from the lower id of two equal ones
    rj, ri = radius[j], radius[i]
    keep = (rj < ri) | ((rj == ri) & (j > i))
    return min(m0, float(gaps(i[keep], j[keep]).min(initial=math.inf)))


# -- cp-type ratio trend ----------------------------------------------------


@dataclass
class CpTypeReport:
    radii_list: list[int]
    rho: list[float]
    fit: dict
    verdict: str

    def to_dict(self) -> dict:
        return asdict(self)


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
        rho.append(math.tanh(p.label[0] / 2))
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
    incircles: dict[int, tuple[complex, float]] = {}
    for f, vs in zip(tri[laid].tolist(), tri_vertices[laid].tolist()):
        incircles[f] = _incircle(*(z[v] for v in vs))

    sets: dict[tuple, tuple[tuple[complex, float], ...]] = {
        ("v", v): ((z[v], r[v]),) for v in p.placed()
    }
    for e in range(g.n_edges):
        f1, f2 = owner[2 * e], owner[2 * e + 1]
        disks = tuple(
            incircles[f] for f in sorted({f1, f2}) if f in incircles
        )
        if disks:
            sets[("e", e)] = disks

    ends = g.dart_vertex.tolist()
    adjacency = []
    for e in range(g.n_edges):
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
    )


# -- serialization ------------------------------------------------------------


def _svg_num(x: float) -> str:
    """``x`` at six decimals; a value that rounds to zero prints unsigned."""
    return f"{round(x, 6) + 0.0:.6f}"


def packing_to_svg(p: CirclePacking) -> str:
    """The laid-out circles over the nerve's edges between them."""
    placed = p.placed()
    if not placed:
        raise GeometryError("nothing to draw")
    ext = p.extent() * 1.02
    x = [_svg_num(t) for t in p.centers.real.tolist()]
    y = [_svg_num(t) for t in p.centers.imag.tolist()]
    r = [_svg_num(t) for t in p.radii.tolist()]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_svg_num(-ext)} '
        f'{_svg_num(-ext)} {_svg_num(2 * ext)} {_svg_num(2 * ext)}">'
    ]
    drawn = set(placed)
    ends = p.graph.dart_vertex.tolist()
    for a, b in zip(ends[0::2], ends[1::2]):
        if a in drawn and b in drawn:
            lines.append(
                f'<line x1="{x[a]}" y1="{y[a]}" x2="{x[b]}" y2="{y[b]}" '
                f'stroke="#999" stroke-width="{_svg_num(ext / 500)}"/>'
            )
    for v in placed:
        lines.append(
            f'<circle cx="{x[v]}" cy="{y[v]}" r="{r[v]}" '
            f'fill="none" stroke="#000" stroke-width="{_svg_num(ext / 400)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
