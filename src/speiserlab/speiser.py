"""Speiser-type graph generators and transformers.

The base graph is the 3-regular tiling with octagonal faces, obtained as the
dual of a ``{3,8}`` triangulation ball.  ``tree_replace`` stretches its cut
edges into unbranched trees with alternating doubled edges, which keeps the
result bipartite and 3-homogeneous; ``lambda_triangulation`` subdivides every
k-gon face into 2k triangles; ``extend_speiser`` glues a square-grid cylinder
into every interior face.

All transformations are expressed as full face-walk rewrites and rebuilt via
``RotationGraph.from_walks`` so rotation systems stay consistent by
construction.  Each rewrite computes its walks with numpy from the flat face
arrays of ``trace_faces``, as integer keys: the input's vertices keep their
ids (``keep = n``), new vertices and all edges get keys from disjoint
integer ranges, and the result is one validated graph.
``lambda_triangulation`` writes only the triangles of an interior face; the
midpoint subdivision of ``refinement``, which ``subdivide4`` shares, keys
and builds the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrontierError, GraphError, ScheduleError
from .graph_core import (
    RotationGraph,
    bfs_layers,
    dual,
    induced_ball,
    interior_face_mask,
    trace_faces,
    two_colored,
)
from .lattices import triangular_ball
from .refinement import _midpoint_subdivision


@dataclass(frozen=True)
class GrowthSchedule:
    """Sequence of odd tree lengths, one per cut-edge layer."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        if not self.lengths:
            raise ScheduleError("schedule must contain at least one length")
        for l in self.lengths:
            if l < 1 or l % 2 == 0:
                raise ScheduleError(f"tree length {l} must be an odd positive integer")

    def __len__(self) -> int:
        return len(self.lengths)


def build_octagonal_speiser(depth: int) -> RotationGraph:
    """Truncation of the 3-regular octagon tiling containing the full B(2 depth).

    The patch is the dual of ``triangular_ball(8, depth + 2)``; its layers
    from vertex 0 are reliable out to 2 depth.  Vertex 0 is the root;
    non-frontier vertices have degree 3, interior faces are octagons, and
    bipartite circle/cross tags are assigned from the root.
    """
    if depth < 1:
        raise GraphError("depth must be >= 1")
    # dual vertex ids are the ranks of the kept faces.  Face 0 of the ball is
    # the face of dart 0 at the center vertex 0, and with depth + 2 >= 3 rings
    # it touches no frontier vertex, so it is kept as vertex 0
    psi = two_colored(dual(triangular_ball(8, depth + 2)))
    if psi is None:
        raise GraphError("octagon tiling patch is unexpectedly not bipartite")
    return psi


def tree_replace(g: RotationGraph, schedule: GrowthSchedule) -> RotationGraph:
    """Replace every edge of cut layer n by an unbranched tree of length l_n.

    The cut layers are counted from vertex 0: an edge from S(n) to S(n + 1)
    is in layer n.  The tree alternates single, double, single, ... edges,
    starting and ending with a single edge, so odd l_n keeps the graph
    bipartite and the interior 3-homogeneous.  Original vertices keep their
    ids.
    """
    dist = bfs_layers(g, 0).dist
    du, dv = dist[g.dart_vertex[0::2]], dist[g.dart_vertex[1::2]]
    same_sphere = np.flatnonzero(du == dv)
    if len(same_sphere):
        raise GraphError(
            "tree replacement needs a bipartite layered graph; "
            f"edge {same_sphere[0]} joins vertices in the same sphere"
        )
    layer = np.minimum(du, dv)
    n_layers = int(layer.max()) + 1 if g.n_edges else 0
    if len(schedule) < n_layers:
        raise ScheduleError(
            f"schedule has {len(schedule)} lengths but the graph has "
            f"{n_layers} cut layers"
        )
    length = np.asarray(schedule.lengths, dtype=np.int64)[layer]
    # keys: tree vertex j (1 <= j < l) of edge e is node0[e] + j; position j
    # of edge e has edge key 2 (slot0[e] + j), plus 1 for the second copy of
    # a doubled (odd) position
    node0 = g.n_vertices + np.cumsum(length - 1) - length
    slot0 = np.cumsum(length) - length

    # every dart of every face walks the l positions of its stretched edge:
    # dart 2e from the tail of 2e, dart 2e + 1 back from the other end
    faces = trace_faces(g)
    seg = length[faces.darts >> 1]
    at = np.repeat(np.arange(len(seg)), seg)
    q = np.arange(len(at)) - np.repeat(np.cumsum(seg) - seg, seg)
    e = faces.darts[at] >> 1
    back = (faces.darts[at] & 1).astype(bool)
    j = np.where(back, length[e] - 1 - q, q)
    tails = np.where(q == 0, faces.vertices[at], node0[e] + j + back)
    keys = 2 * (slot0[e] + j) + (back & (j % 2 == 1))
    face_lengths = np.add.reduceat(seg, faces.offsets[:-1])
    del at, q, e, back, j

    # the bigon between the two copies of each doubled position j
    n_bigons = (length - 1) // 2
    be = np.repeat(np.arange(g.n_edges), n_bigons)
    first_bigon = np.cumsum(n_bigons) - n_bigons
    bj = 1 + 2 * (np.arange(len(be)) - np.repeat(first_bigon, n_bigons))
    bigon_tails = np.stack([node0[be] + bj, node0[be] + bj + 1], axis=1).ravel()
    bigon_keys = 2 * np.stack([slot0[be] + bj, slot0[be] + bj], axis=1).ravel()
    bigon_keys[0::2] += 1

    built = RotationGraph.from_walks(
        np.concatenate([tails, bigon_tails]),
        np.concatenate([keys, bigon_keys]),
        np.concatenate([face_lengths, np.full(len(be), 2)]),
        keep=g.n_vertices,
        frontier=g.frontier,
    )
    out = two_colored(built.graph)
    if out is None:
        raise GraphError("tree replacement broke bipartiteness")
    return out


def lambda_triangulation(g: RotationGraph, with_map: bool = False):
    """Subdivide each interior k-gon face into 2k triangles.

    Every edge gets a midpoint vertex (each parallel copy its own); every
    interior face gets a center joined to the boundary vertices and midpoints.
    The other faces (``interior_face_mask``) are left unsubdivided apart
    from the midpoints on their edges, and their midpoints join the
    frontier.  Original vertices keep their ids.  With ``with_map``
    the refinement cover structure is returned alongside the graph.
    """

    def fan(first, j, prev, tail, head, dart, mid, center, new):
        # side j gives (tail, mid, center) and (mid, head, center); spoke
        # 2j of the face is the side's new edge, spoke 2j + 1 is new + 1
        at = first + 6 * j
        return [
            (at, tail, dart),
            (at + 1, mid, new),
            (at + 2, center, new[prev] + 1),
            (at + 3, mid, dart ^ 1),
            (at + 4, head, new + 1),
            (at + 5, center, new),
        ]

    return _midpoint_subdivision(g, 6, fan, with_map)


def check_grid_depth(grid_depth: int) -> None:
    """Reject a grid cylinder of height below 1."""
    if grid_depth < 1:
        raise GraphError("grid_depth must be >= 1")


def extend_speiser(g: RotationGraph, grid_depth: int) -> RotationGraph:
    """Glue a square-grid cylinder of height ``grid_depth`` into each interior face.

    Ring 0 follows the face's boundary walk (a vertex visited twice gets two
    vertical neighbors); rings 1..grid_depth are new k-cycles, and the top
    ring joins the frontier.  The other faces (``interior_face_mask``) are
    skipped.  Original vertices keep their ids.
    """
    check_grid_depth(grid_depth)
    faces = trace_faces(g)
    inner = interior_face_mask(g)
    n, n_edges, n_darts = g.n_vertices, g.n_edges, len(faces.darts)
    gd = grid_depth
    fid = faces.face_index()
    i = np.arange(n_darts) - faces.offsets[fid]
    # each inner k-gon gives gd k squares (ring m, position i: 4 items at
    # block0 + 4 (m k + i)) and a k-gon cap; other faces keep their walk
    block = np.where(inner, (4 * gd + 1) * faces.lengths, faces.lengths)
    block0 = np.cumsum(block) - block
    total = int(block.sum())
    tails = np.empty(total, dtype=np.int64)
    keys = np.empty(total, dtype=np.int64)
    starts = np.zeros(total, dtype=bool)

    o = ~inner[fid]
    tails[block0[fid[o]] + i[o]] = faces.vertices[o]
    keys[block0[fid[o]] + i[o]] = faces.darts[o] >> 1
    starts[block0[~inner]] = True

    ins = np.flatnonzero(inner[fid])
    f, ii = fid[ins], i[ins]
    k = faces.lengths[f]
    off = faces.offsets[f]

    # keys: ring m >= 1 node i of face f is n + gd off + (m - 1) k + i, its
    # ring edge to node i + 1 is |E| + gd off + (m - 1) k + i, and the edge
    # from ring m to ring m + 1 at position i is |E| + gd |D| + gd off + m k + i;
    # ring 0 is the face's own walk
    def node(m: int, idx: np.ndarray) -> np.ndarray:
        idx = idx % k
        if m == 0:
            return faces.vertices[off + idx]
        return n + gd * off + (m - 1) * k + idx

    def ring(m: int, idx: np.ndarray) -> np.ndarray:
        idx = idx % k
        if m == 0:
            return faces.darts[off + idx] >> 1
        return n_edges + gd * off + (m - 1) * k + idx

    def rung(m: int, idx: np.ndarray) -> np.ndarray:
        return n_edges + gd * n_darts + gd * off + m * k + idx % k

    for m in range(gd):
        b = block0[f] + 4 * (m * k + ii)
        tails[b], keys[b] = node(m, ii), ring(m, ii)
        tails[b + 1], keys[b + 1] = node(m, ii + 1), rung(m, ii + 1)
        tails[b + 2], keys[b + 2] = node(m + 1, ii + 1), ring(m + 1, ii)
        tails[b + 3], keys[b + 3] = node(m + 1, ii), rung(m, ii)
        starts[b] = True
    # cap: the top ring traversed forward closes the cylinder
    cap = block0[f] + 4 * gd * k + ii
    tails[cap], keys[cap] = node(gd, ii), ring(gd, ii)
    starts[block0[inner] + 4 * gd * faces.lengths[inner]] = True

    first = np.flatnonzero(starts)
    return RotationGraph.from_walks(
        tails,
        keys,
        np.diff(first, append=total),
        keep=n,
        frontier=np.concatenate([np.fromiter(g.frontier, np.int64), node(gd, ii)]),
    ).graph


# -- exact layer counts for the infinite extension -------------------------


@dataclass
class ExtendedLayerCounts:
    """Sphere and cut sizes of the extended graph with unbounded grids.

    Computed from the base layer structure alone: a vertex at distance d with
    degree ``deg`` carries ``deg`` grid columns whose height-m vertices sit at
    distance d + m, and every base edge contributes a ladder of ring edges.
    Valid for k up to the ``k_max`` they were counted to.
    """

    sphere_sizes: list[int]
    ball_sizes: list[int]
    cut_sizes: list[int]


def extended_layer_counts(
    g: RotationGraph, root: int, k_max: int
) -> ExtendedLayerCounts:
    """Exact |S(k)|, |B(k)|, |E(k)| tables around ``root`` for the extension
    of ``g`` with unbounded grids, the true extended graph.

    Requires the base layers to be reliable up to ``k_max``.
    """
    layers = bfs_layers(g, root)
    if g.frontier and k_max > layers.reliable_depth:
        raise FrontierError(
            f"k_max {k_max} exceeds base reliable depth {layers.reliable_depth}"
        )

    # vertices, and grid columns (one per dart), starting at each distance
    dist, tails = layers.dist, layers.dist[g.dart_vertex]
    base_s = np.bincount(dist[dist <= k_max], minlength=k_max + 1)
    deg_at = np.bincount(tails[tails <= k_max], minlength=k_max + 1)
    cuts = layers.cut_sizes()[:k_max]
    base_cut = np.array(cuts + [0] * (k_max - len(cuts)), dtype=np.int64)
    # the columns starting at distances d <= k
    columns = np.cumsum(deg_at)
    # |S_ext(k)| = |S(k)| + one vertex, at height k - d, per column with d < k
    sphere = base_s + columns - deg_at
    # |E_ext(k)| = |E(k)| + one vertical edge per column with d <= k + the
    #              ring rungs at height k - d over both sides of E(d), d < k
    cut = base_cut + columns[:k_max] + 2 * (np.cumsum(base_cut) - base_cut)
    return ExtendedLayerCounts(
        sphere_sizes=sphere.tolist(),
        ball_sizes=np.cumsum(sphere).tolist(),
        cut_sizes=cut.tolist(),
    )


def speiser_ball(depth: int) -> RotationGraph:
    """Octagonal base graph trimmed to exactly B(depth) around vertex 0.

    B(depth) is cut from the smallest patch that holds it,
    ``build_octagonal_speiser(ceil(depth / 2))``; the ball keeps the patch's
    circle/cross tags, which are its own BFS parities from vertex 0.
    """
    return induced_ball(build_octagonal_speiser((depth + 1) // 2), depth)
