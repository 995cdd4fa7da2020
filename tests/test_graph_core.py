import gc
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speiserlab.errors import GraphError
from speiserlab.graph_core import (
    RotationGraph,
    bfs_layers,
    build_graph,
    canonical_form,
    classify,
    dual,
    euler_characteristic,
    induced_ball,
    interior_face_mask,
    is_isomorphic,
    to_json,
    to_json_dict,
    trace_faces,
    two_coloring,
)
from speiserlab.lattices import (
    cube,
    cycle_graph,
    grid_patch,
    octahedron,
    path_graph,
    regular_tree,
    square_ball,
    triangular_ball,
)


def _dart_graph(rotations, frontier=()):
    """The graph whose vertex ``v`` has the darts ``rotations[v]`` in order."""
    offsets = np.cumsum([0, *map(len, rotations)])
    darts = np.array([d for rot in rotations for d in rot], dtype=np.int64)
    return RotationGraph(darts, offsets, frontier)


def test_octahedron_counts():
    g = octahedron()
    assert g.n_vertices == 6
    assert g.n_edges == 12
    assert all(g.degree(v) == 4 for v in range(g.n_vertices))
    faces = trace_faces(g)
    assert len(faces) == 8
    assert (faces.lengths == 3).all()
    assert euler_characteristic(g) == 2


def test_half_edge_conservation():
    for g in (octahedron(), cube(), grid_patch(3, 3), triangular_ball(6, 2)):
        assert 2 * g.n_edges == sum(g.degree(v) for v in range(g.n_vertices))


def test_grid_patch_3x3():
    g = grid_patch(3, 3)
    assert g.n_vertices == 9
    assert g.n_edges == 12
    faces = trace_faces(g)
    # 4 interior squares; the outer walk has length 8
    assert (faces.lengths == 4).sum() == 4
    assert len(faces) == 5
    assert euler_characteristic(g) == 2


def test_self_loop_rejected():
    # one edge whose both darts sit at the same vertex
    with pytest.raises(GraphError, match="self-loop"):
        _dart_graph([[0, 1], []])


def test_disconnected_rejected():
    with pytest.raises(GraphError, match="disconnected"):
        _dart_graph([[0], [1], [2], [3]])


def test_dangling_halfedge_rejected():
    spec = {
        "version": 1,
        "vertices": [{"id": 0, "rotation": [0, 7]}, {"id": 1, "rotation": [1]}],
        "edges": [{"id": 0, "halfedges": [0, 1]}],
        "frontier": [],
        "tags": {},
    }
    with pytest.raises(GraphError, match="dangling"):
        build_graph(spec)


def test_json_round_trip_byte_stable():
    g = triangular_ball(6, 2)
    s1 = to_json(g)
    g2 = build_graph(json.loads(s1))
    s2 = to_json(g2)
    assert s1 == s2
    assert g2.frontier == g.frontier


def _tagged(g, tags):
    return RotationGraph(g.rot_darts, g.rot_offsets, g.frontier, tags)


@pytest.mark.parametrize(
    "make, excerpts",
    [
        # tag keys sort as strings: "10" before "2"
        (
            lambda: _tagged(triangular_ball(6, 2), {2: "circle", 10: "cross"}),
            ['"10": "cross",\n    "2": "circle"'],
        ),
        (lambda: _tagged(octahedron(), {0: 'say "ü"'}), ['"0": "say \\"\\u00fc\\""']),
        # tag values pass through the % templates literally
        (
            lambda: _tagged(octahedron(), {1: "50%", 3: "%d %s %%", 0: "circle"}),
            ['"1": "50%",\n    "3": "%d %s %%"'],
        ),
        (lambda: _dart_graph([[]]), ['"edges": []', '"rotation": []']),
        (lambda: octahedron(), ['"frontier": []', '"tags": {}']),
    ],
    ids=[
        "tag-key-order",
        "tag-escaping",
        "tag-percent",
        "single-vertex",
        "no-frontier-or-tags",
    ],
)
def test_to_json_matches_json_dumps(make, excerpts):
    g = make()
    text = to_json(g)
    assert text == json.dumps(to_json_dict(g), sort_keys=True, indent=2) + "\n"
    assert all(part in text for part in excerpts)
    back = build_graph(text)
    assert back.rotations == g.rotations
    assert (back.frontier, back.tags) == (g.frontier, g.tags)


def _path_spec(**changes) -> dict:
    spec = to_json_dict(path_graph(2))
    spec.update(changes)
    return spec


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"frontier": [999]}, "frontier vertex 999 is not a vertex id"),
        ({"tags": {"x": "circle"}}, "tag key 'x' is not an integer"),
        ({"tags": {"7": "circle"}}, "tag on unknown vertex 7"),
        (
            {
                "vertices": [
                    {"id": 0, "rotation": [0]},
                    {"id": 0, "rotation": [1, 2]},
                    {"id": 2, "rotation": [3]},
                ]
            },
            "vertex id 0 listed twice",
        ),
        (
            {"vertices": [{"rotation": [0]}, {"id": 1, "rotation": [1, 2]}]},
            "vertex id None is not an integer",
        ),
        ({"frontier": ["1"]}, "frontier vertex '1' is not an integer"),
        ({"tags": {"1": ["circle"]}}, "tag on vertex 1 is not a string"),
    ],
)
def test_build_graph_rejects_bad_vertex_references(changes, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        build_graph(_path_spec(**changes))


def test_build_graph_maps_listed_ids():
    # ids need not be 0..n-1 or in order: records keep their listed position
    spec = {
        "version": 1,
        "vertices": [
            {"id": 30, "rotation": [11]},
            {"id": 10, "rotation": [10, 21]},
            {"id": 20, "rotation": [20]},
        ],
        "edges": [{"id": 0, "halfedges": [10, 11]}, {"id": 1, "halfedges": [20, 21]}],
        "frontier": [20],
        "tags": {"10": "cross", "30": "circle"},
    }
    g = build_graph(spec)
    assert g.rotations == [[1], [0, 3], [2]]
    assert g.frontier == {2}
    assert g.tags == {1: "cross", 0: "circle"}


def test_build_graph_error_precedence():
    # a repeated half-edge before a malformed edge record is reported first
    edges = [
        {"id": 0, "halfedges": [0, 1]},
        {"id": 1, "halfedges": [1, 2]},
        {"id": 2, "halfedges": [3]},
    ]
    with pytest.raises(GraphError, match="half-edge 1 listed by two edges"):
        build_graph(_path_spec(edges=edges))
    # the first half-edge met a second time, not the smallest repeated one
    pairs = [[5, 6], [3, 4], [3, 5]]
    edges3 = [{"id": i, "halfedges": h} for i, h in enumerate(pairs)]
    with pytest.raises(GraphError, match="half-edge 3 listed by two edges"):
        build_graph(_path_spec(edges=edges3))
    edges[1]["halfedges"] = [4, 0, 2]
    with pytest.raises(GraphError, match="edge 1 must list exactly two half-edges"):
        build_graph(_path_spec(edges=edges))
    with pytest.raises(GraphError, match="half-edge 'a' is not an integer"):
        build_graph(_path_spec(edges=[{"id": 0, "halfedges": ["a", 1]}]))
    with pytest.raises(GraphError, match="unsupported graph format version"):
        build_graph(_path_spec(version=2))


@pytest.mark.parametrize("enabled", [True, False])
def test_build_graph_restores_the_collector_state(enabled, monkeypatch):
    text = to_json(octahedron())
    during = []
    loads = json.loads

    def watched(*args, **kwargs):
        during.append(gc.isenabled())
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", watched)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert to_json(build_graph(text)) == text
        assert gc.isenabled() is enabled
        with pytest.raises(json.JSONDecodeError):
            build_graph(text[:-3])
        assert gc.isenabled() is enabled
        with pytest.raises(GraphError, match="unsupported graph format version"):
            build_graph(text.replace('"version": 1', '"version": 2'))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the collector is paused while the text is decoded
    assert during == [False, False, False]


def test_build_graph_octahedron_spec():
    g = build_graph(to_json_dict(octahedron()))
    assert g.n_edges == 12


def test_dual_cube_is_octahedron():
    d = dual(cube())
    assert is_isomorphic(d, octahedron())


def test_dual_dual_identity():
    for g in (cube(), octahedron()):
        dd = dual(dual(g))
        assert canonical_form(dd) == canonical_form(g)


def test_dual_of_cycle_two_vertices():
    g = cycle_graph(5)
    d = dual(g)
    assert d.n_vertices == 2
    assert d.n_edges == 5
    assert all(d.degree(v) == 5 for v in range(d.n_vertices))


def test_bigon_face_traced():
    g = cycle_graph(2)  # doubled edge
    faces = trace_faces(g)
    assert sorted(faces.lengths.tolist()) == [2, 2]


def test_bfs_layers_square_ball():
    g = square_ball(6)
    layers = bfs_layers(g, 0)
    assert layers.sphere_sizes()[0] == 1
    for n in range(1, layers.reliable_depth + 1):
        assert layers.sphere_sizes()[n] == 4 * n
    assert layers.reliable_depth == 6
    # every edge joins the same or adjacent spheres (bfs_layers raises otherwise)
    # cut sizes on the grid: |E(k)| = 4(2k+1)
    for k in range(0, 5):
        assert layers.cut_sizes()[k] == 4 * (2 * k + 1)


def test_bfs_layers_path():
    g = path_graph(5)
    layers = bfs_layers(g, 0)
    assert layers.cut_sizes() == [1, 1, 1, 1, 1]
    assert layers.depth == 5


def test_bfs_layers_cached_per_root_and_read_only():
    g = triangular_ball(6, 4)
    layers = bfs_layers(g, 0)
    assert bfs_layers(g, 0) is layers
    assert bfs_layers(g, 3) is bfs_layers(g, 3)
    assert bfs_layers(g, 3) is not layers
    assert bfs_layers(g, 3).root == 3 and bfs_layers(g, 3).dist[3] == 0
    assert not layers.dist.flags.writeable
    with pytest.raises(ValueError):
        layers.dist[0] = 5
    with pytest.raises(AttributeError):
        layers.dist = np.zeros(g.n_vertices, dtype=np.int64)
    assert layers.sphere_sizes() == [1, 6, 12, 18, 24]
    with pytest.raises(GraphError, match="root 61 not in graph"):
        bfs_layers(g, 61)


def test_bfs_ball_consistency():
    g = triangular_ball(7, 4)
    layers = bfs_layers(g, 0)
    assert layers.ball_sizes()[-1] == g.n_vertices


def test_classify_octahedron():
    c = classify(octahedron())
    assert not c.is_bipartite
    assert c.homogeneous_degree == 4
    assert c.is_disk_triangulation
    assert c.p_of == 4


def test_classify_cube_bipartite():
    c = classify(cube())
    assert c.is_bipartite
    assert c.homogeneous_degree == 3
    assert not c.is_disk_triangulation


def test_classify_p_of_tight():
    g = triangular_ball(8, 3)
    c = classify(g)
    # interior vertices all have degree 8, so every interior edge has min degree 8
    assert c.p_of == 8
    assert c.homogeneous_degree == 8


def _frontier_free_disk_rule(g):
    # a frontier-free map has no outer face: it is a disk triangulation when
    # it has a face and every face is a triangle
    lengths = trace_faces(g).lengths
    return len(lengths) > 0 and bool((lengths == 3).all())


@pytest.mark.parametrize(
    "build,expected",
    [
        (octahedron, True),
        (cube, False),
        (lambda: cycle_graph(2), False),
        (lambda: grid_patch(3, 3), False),
        (lambda: RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 1)]), True),
        (  # the tetrahedron
            lambda: RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]),
            True,
        ),
        (lambda: _dart_graph([[]]), False),
    ],
)
def test_classify_disk_rule_matches_frontier_free_reference(build, expected):
    g = build()
    assert not g.frontier
    assert classify(g).is_disk_triangulation is _frontier_free_disk_rule(g) is expected


def test_frontier_free_map_has_no_outer_face():
    # two triangles and a quadrilateral with no frontier: every face is
    # interior, the quadrilateral too, as in dual
    from speiserlab.errors import RefinementError
    from speiserlab.refinement import subdivide4
    from speiserlab.speiser import lambda_triangulation

    g = RotationGraph.from_face_cycles([(0, 1, 2), (0, 2, 3), (0, 3, 2, 1)])
    assert not g.frontier
    assert interior_face_mask(g).all()
    assert not classify(g).is_disk_triangulation
    with pytest.raises(RefinementError, match="has 4 sides"):
        subdivide4(g)
    # lambda puts 2k triangles into every face and leaves no frontier
    lam = lambda_triangulation(g)
    assert not lam.frontier
    assert len(trace_faces(lam)) == 6 + 6 + 8
    assert classify(lam).is_disk_triangulation


def test_triangular_ball_ring_sizes():
    g = triangular_ball(8, 5)
    layers = bfs_layers(g, 0)
    sizes = layers.sphere_sizes()
    assert sizes[1] == 8
    # |ring k+1| = 4 |ring k| - |ring k-1| for {3,8}
    for k in range(2, 5):
        assert sizes[k + 1] == 4 * sizes[k] - sizes[k - 1]


def test_triangular_ball_interior_faces_are_triangles():
    for q in (6, 7, 8):
        g = triangular_ball(q, 3)
        faces = trace_faces(g)
        inner = ~faces.touches_frontier
        assert inner.any(), "expected interior faces"
        assert (faces.lengths[inner] == 3).all()
        for v in set(range(g.n_vertices)) - g.frontier:
            assert g.degree(v) == q


# sha256 prefixes of to_json(triangular_ball(q, depth)), recorded from the
# ring-by-ring Python loop that the numpy construction replaced, at every
# (q, depth) the package and its tests build
TRIANGULAR_BALL_SHA = {
    6: {
        1: "f8512b82b8826ba0",
        2: "623b9391b0d595f3",
        3: "96a91f7711477803",
        4: "e5a71684f2a8d91b",
        5: "ebc6c2d75cc65611",
        6: "8d8c418c2692c718",
        16: "cb7ea072e133f332",
        17: "09b808bed38e0c36",
        26: "8a57520528a10185",
        40: "dfe1a379a5128344",
    },
    7: {
        1: "6d8ae97afee36d46",
        2: "0ec963ab099bdfaf",
        3: "31ab208c483c22ad",
        4: "73651bca922b5cb3",
    },
    8: {
        1: "a719d77ce17a1544",
        2: "e9076e7b7c87827c",
        3: "89df7a0a39b63eea",
        4: "a3c759f0e7012a7c",
        5: "fb40ae5fedcf96cd",
        6: "9c21ef3cd5e3c5ba",
        7: "90de6d6583449076",
    },
}


@pytest.mark.parametrize(
    "q, depth", [(q, d) for q, ds in TRIANGULAR_BALL_SHA.items() for d in ds]
)
def test_triangular_ball_bytes_pinned(q, depth):
    assert _sha(to_json(triangular_ball(q, depth))) == TRIANGULAR_BALL_SHA[q][depth]


def _ring_loop_triangular_ball(q, depth):
    """The ring-by-ring Python loop that ``triangular_ball`` replaced."""
    n_edges = 0

    def new_edge():
        nonlocal n_edges
        n_edges += 1
        return n_edges - 1

    ring = list(range(1, q + 1))
    spokes = [new_edge() for _ in ring]
    ring_edges = [new_edge() for _ in ring]
    incidence = [list(spokes)]
    downs = [[spokes[i]] for i in range(q)]
    n_vertices = q + 1
    for _ in range(1, depth):
        m = len(ring)
        up_counts = [q - 2 - len(downs[i]) for i in range(m)]
        arcs, next_ring, first_new = [], [], n_vertices
        for i in range(m):
            if i == 0:
                arc = [n_vertices]
                next_ring.append(n_vertices)
                n_vertices += 1
            else:
                arc = [arcs[i - 1][-1]]
            for _ in range(up_counts[i] - 1 if i < m - 1 else up_counts[i] - 2):
                arc.append(n_vertices)
                next_ring.append(n_vertices)
                n_vertices += 1
            if i == m - 1:
                arc.append(first_new)
            arcs.append(arc)
        next_ring_edges = [new_edge() for _ in next_ring]
        up_edges, new_downs = [], {v: [] for v in next_ring}
        for i in range(m):
            up_edges.append([new_edge() for _ in arcs[i]])
            for w, e in zip(arcs[i], up_edges[i]):
                new_downs[w].append(e)
        new_downs[first_new].reverse()
        for i in range(m):
            incidence.append(
                [ring_edges[i]] + downs[i][::-1] + [ring_edges[i - 1]] + up_edges[i]
            )
        ring, ring_edges = next_ring, next_ring_edges
        downs = [new_downs[v] for v in next_ring]
    for i in range(len(ring)):
        incidence.append([ring_edges[i]] + downs[i][::-1] + [ring_edges[i - 1]])
    return RotationGraph.from_rotations(incidence, frontier=set(ring))


@pytest.mark.parametrize("q", [6, 7, 8, 9, 12])
def test_triangular_ball_matches_the_ring_loop(q):
    for depth in range(1, 5):
        assert to_json(triangular_ball(q, depth)) == to_json(
            _ring_loop_triangular_ball(q, depth)
        )


def test_from_edge_slots_is_the_flat_from_rotations():
    incidence = [[0, 1, 2], [0, 3, 1], [2, 3]]
    edge = np.array([0, 1, 2, 0, 3, 1, 2, 3])
    a = RotationGraph.from_rotations(incidence, frontier={2})
    b = RotationGraph.from_edge_slots(edge, np.array([0, 3, 6, 8]), frontier={2})
    assert to_json(a) == to_json(b)
    with pytest.raises(GraphError, match="single endpoint"):
        RotationGraph.from_edge_slots(edge[:-1], np.array([0, 3, 6, 7]))


def test_hex_ball_euler():
    g = triangular_ball(6, 3)
    assert euler_characteristic(g) == 2
    layers = bfs_layers(g, 0)
    assert layers.sphere_sizes() == [1, 6, 12, 18]


def test_regular_tree_layers():
    g = regular_tree(3, 5)
    layers = bfs_layers(g, 0)
    assert layers.cut_sizes() == [3, 6, 12, 24, 48]


def test_induced_ball_frontier():
    g = triangular_ball(6, 4)
    b2 = induced_ball(g, 2)
    assert b2.n_vertices == 1 + 6 + 12
    l2 = bfs_layers(b2, 0)
    assert l2.sphere_sizes() == [1, 6, 12]
    assert set(np.flatnonzero(l2.dist == 2).tolist()) <= b2.frontier


@pytest.mark.parametrize("q, depth", [(6, 24), (8, 7)])
def test_induced_ball_of_lattice_is_the_smaller_lattice(q, depth):
    # leg A and `analyze ratio-trend` cut every B(n) from one lattice
    lattice = triangular_ball(q, depth)
    for n in range(1, depth + 1):
        got = to_json(induced_ball(lattice, n))
        assert got == to_json(triangular_ball(q, n))


def test_canonical_isomorphism_invariance():
    g1 = octahedron()
    # relabel by rebuilding from rotated face list
    faces = [
        (2, 0, 1), (0, 2, 3), (0, 3, 4), (0, 4, 1),
        (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 1, 4),
    ]
    g2 = RotationGraph.from_face_cycles(faces)
    assert is_isomorphic(g1, g2)
    assert not is_isomorphic(g1, cube())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=2, max_value=5))
def test_grid_euler_property(cols, rows):
    g = grid_patch(cols, rows)
    assert euler_characteristic(g) == 2
    assert 2 * g.n_edges == sum(g.degree(v) for v in range(g.n_vertices))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([6, 7, 8]), st.integers(min_value=1, max_value=3))
def test_triangular_ball_properties(q, depth):
    g = triangular_ball(q, depth)
    assert euler_characteristic(g) == 2
    layers = bfs_layers(g, 0)
    assert layers.reliable_depth == depth
    assert layers.ball_sizes()[-1] == g.n_vertices


# -- the integer face-walk rebuild against the tuple-keyed reference ---------


def _reference_from_walks(walks, frontier_keys=()):
    """Tuple-keyed ``from_walks`` as it was before the integer rewrite.

    Returns (rotations, frontier ids, vertex key -> id, edge key -> id); the
    vertices are numbered by first appearance as a tail.
    """
    vmap, emap, first_dart = {}, {}, {}
    dart_tail, dart_ids = [], []
    for walk in walks:
        if not walk:
            raise GraphError("empty face walk")
        ids = []
        for tail_key, edge_key in walk:
            if tail_key not in vmap:
                vmap[tail_key] = len(vmap)
            tail = vmap[tail_key]
            if edge_key in emap:
                e = emap[edge_key]
                if first_dart[edge_key] == -1:
                    raise GraphError(f"edge key {edge_key!r} used more than twice")
                d = 2 * e + 1
                if dart_tail[2 * e] == tail:
                    raise GraphError(
                        f"self-loop: edge key {edge_key!r} has equal tails"
                    )
                first_dart[edge_key] = -1
            else:
                e = len(emap)
                emap[edge_key] = e
                first_dart[edge_key] = 1
                d = 2 * e
            while len(dart_tail) <= d:
                dart_tail.append(-1)
            dart_tail[d] = tail
            ids.append(d)
        dart_ids.append(ids)
    dangling = [k for k, s in first_dart.items() if s != -1]
    if dangling:
        raise GraphError(f"edge keys appearing once: {dangling[:5]}")
    n_darts = 2 * len(emap)
    face_next = [-1] * n_darts
    for ids in dart_ids:
        for i, d in enumerate(ids):
            face_next[d] = ids[(i + 1) % len(ids)]
    sigma = [face_next[d ^ 1] for d in range(n_darts)]
    rotations = [[] for _ in range(len(vmap))]
    placed = [False] * n_darts
    for d0 in range(n_darts):
        if placed[d0]:
            continue
        v = dart_tail[d0]
        cyc, d = [], d0
        while True:
            if dart_tail[d] != v:
                raise GraphError("inconsistent walks: rotation mixes vertices")
            placed[d] = True
            cyc.append(d)
            d = sigma[d]
            if d == d0:
                break
        if rotations[v]:
            raise GraphError("inconsistent walks: vertex key has a disconnected star")
        rotations[v] = cyc
    frontier = {vmap[k] for k in frontier_keys if k in vmap}
    return rotations, frontier, vmap, emap


def _reference_keep_originals(rotations, frontier, vmap, keep):
    """The keep-originals relabel applied after the tuple-keyed rebuild."""
    new_id = [-1] * len(vmap)
    for key, old in vmap.items():
        if key < keep:
            new_id[old] = key
    nxt = keep
    for old in range(len(vmap)):
        if new_id[old] == -1:
            new_id[old] = nxt
            nxt += 1
    out = [None] * len(vmap)
    for old, rot in enumerate(rotations):
        out[new_id[old]] = rot
    return out, {new_id[v] for v in frontier}, {k: new_id[v] for k, v in vmap.items()}


def _reference_trace(g):
    """Face walks by following ``rot_succ[d ^ 1]`` from each unseen dart."""
    seen, faces = [False] * g.n_darts, []
    for d0 in range(g.n_darts):
        walk, d = [], d0
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = g.rot_succ.item(d ^ 1)
        if walk:
            faces.append(walk)
    return faces


def _small_gamma():
    from speiserlab.speiser import GrowthSchedule, speiser_ball, tree_replace

    return tree_replace(speiser_ball(2), GrowthSchedule((3, 5)))


WALK_SOURCES = {
    "tri6": lambda: triangular_ball(6, 3),
    "tri8": lambda: triangular_ball(8, 3),
    "grid": lambda: grid_patch(4, 3),
    "tree": lambda: regular_tree(3, 3),
    "gamma": _small_gamma,
}


def _face_lists(faces, values):
    """``values`` (one entry per face item) cut into per-face lists."""
    return [x.tolist() for x in np.split(values, faces.offsets[1:-1])]


def _scrambled_walks(g):
    """The faces of ``g`` in reverse order, each started one item later."""
    walks = []
    for darts in reversed(_face_lists(trace_faces(g), trace_faces(g).darts)):
        items = [(g.dart_vertex[d], d >> 1) for d in darts]
        walks.append(items[1:] + items[:1])
    return walks


def _flat(walks, vkey, ekey):
    tails = [vkey(v) for w in walks for v, _ in w]
    keys = [ekey(e) for w in walks for _, e in w]
    return tails, keys, [len(w) for w in walks]


@pytest.mark.parametrize("source", sorted(WALK_SOURCES))
def test_integer_walks_match_tuple_reference(source):
    g = WALK_SOURCES[source]()
    walks = _scrambled_walks(g)

    # keep = 0: vertex keys 3v + 7 numbered by first appearance
    ref_walks = [[(("v", v), ("e", e)) for v, e in w] for w in walks]
    rot, front, vmap, emap = _reference_from_walks(
        ref_walks, frontier_keys={("v", v) for v in g.frontier}
    )
    built = RotationGraph.from_walks(
        *_flat(walks, lambda v: 3 * v + 7, lambda e: 5 * e + 2),
        frontier=[3 * v + 7 for v in g.frontier],
    )
    out = built.graph
    assert out.rotations == rot
    assert out.frontier == front
    vertex_keys = built.vertex_key.tolist()
    edge_keys = built.edge_key.tolist()
    assert {("v", (k - 7) // 3): v for v, k in enumerate(vertex_keys)} == vmap
    assert {("e", (k - 2) // 5): e for e, k in enumerate(edge_keys)} == emap

    # keep = n: original ids kept, as the rewrites use it
    ref_walks = [[(v, ("e", e)) for v, e in w] for w in walks]
    rot, front, vmap = _reference_keep_originals(
        *_reference_from_walks(ref_walks, frontier_keys=g.frontier)[:3], g.n_vertices
    )
    built = RotationGraph.from_walks(
        *_flat(walks, lambda v: v, lambda e: e), keep=g.n_vertices, frontier=g.frontier
    )
    out = built.graph
    assert out.rotations == rot
    assert out.frontier == front == g.frontier
    assert built.vertex_key.tolist() == list(range(g.n_vertices))

    # the face table filled in by from_walks is the one trace_faces computes,
    # and walk_face names the face each walk became
    fresh = RotationGraph(out.rot_darts, out.rot_offsets, out.frontier)
    faces, fresh_faces = trace_faces(out), trace_faces(fresh)
    out_darts = _face_lists(faces, faces.darts)
    assert out_darts == _reference_trace(fresh)
    assert out_darts == _face_lists(fresh_faces, fresh_faces.darts)
    assert faces.touches_frontier.tolist() == fresh_faces.touches_frontier.tolist()
    face_edges = _face_lists(faces, faces.darts >> 1)
    for i, w in enumerate(walks):
        assert set(face_edges[built.walk_face[i]]) == {emap[("e", e)] for _, e in w}


@pytest.mark.parametrize("source", sorted(WALK_SOURCES))
def test_trace_faces_matches_dart_walk(source):
    g = WALK_SOURCES[source]()
    g = RotationGraph(g.rot_darts, g.rot_offsets, g.frontier)  # no cached faces
    faces = trace_faces(g)
    darts = _face_lists(faces, faces.darts)
    assert darts == _reference_trace(g)
    assert faces.lengths.tolist() == [len(f) for f in darts]
    assert faces.face_of().tolist() == [
        next(i for i, f in enumerate(darts) if d in f) for d in range(g.n_darts)
    ]
    for f, vertices in enumerate(_face_lists(faces, faces.vertices)):
        assert vertices == [g.dart_vertex[d] for d in darts[f]]
        assert faces.touches_frontier[f] == any(v in g.frontier for v in vertices)


@pytest.mark.parametrize(
    "tails, keys, lengths, message",
    [
        ([], [], [0], "empty face walk"),
        ([0, 1, 2], [9, 9, 9], [3], "used more than twice"),
        ([0, 1, 0], [9, 8, 8], [1, 2], "appearing once"),
        ([0, 0], [9, 9], [2], "equal tails"),
        ([0, 1, 1, 2], [9, 8, 9, 8], [2, 2], "rotation mixes vertices"),
        ([0, 1, 0, 2], [9, 9, 8, 8], [2, 2], "disconnected star"),
    ],
)
def test_from_walks_rejects_inconsistent_walks(tails, keys, lengths, message):
    with pytest.raises(GraphError, match=message):
        RotationGraph.from_walks(tails, keys, lengths)
    walks, at = [], 0
    for n in lengths:
        walks.append(list(zip(tails[at : at + n], keys[at : at + n])))
        at += n
    with pytest.raises(GraphError, match=message):
        _reference_from_walks(walks)


@pytest.mark.parametrize(
    "tails, keys, lengths, message",
    [
        (
            [0, 1, 2, 3, 4, 5, 6],
            [7, 7, 7, 3, 3, 3, 1],
            [7],
            "edge key 3 used more than twice",
        ),
        (
            [0, 1, 2, 3, 4, 5, 6, 7],
            [40, 3, 12, 12, 7, 5, 1, 2],
            [8],
            "edge keys appearing once: [1, 2, 3, 5, 7]",
        ),
        (
            [0, 1, 2, 0, 1, 2],
            [4, 6, 2, 4, 6, 2],
            [3, 3],
            "self-loop: edge key 4 has equal tails",
        ),
        (
            [5, 3, 5, 3],
            [2, 2, 3, 3],
            [2, 2],
            "inconsistent walks: vertex key has a disconnected star",
        ),
        ([0, 1], [0, 0], [1, 1], "inconsistent walks: rotation mixes vertices"),
        ([], [], [], "no face walks"),
        ([0], [0, 1], [1], "walk lengths do not match the walk items"),
    ],
)
def test_from_walks_messages_name_the_smallest_key(tails, keys, lengths, message):
    # recorded from the sorting implementation: the smallest offending key
    with pytest.raises(GraphError) as err:
        RotationGraph.from_walks(tails, keys, lengths)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "tails, keys",
    [([0, 1, -1], [5, 5, 6]), ([0, 1, 2], [5, -5, 6]), ([-3, -4], [-1, -1])],
)
def test_from_walks_rejects_negative_keys(tails, keys):
    with pytest.raises(GraphError, match="walk keys must be non-negative"):
        RotationGraph.from_walks(tails, keys, [len(keys)])


@pytest.mark.parametrize("source", sorted(WALK_SOURCES))
def test_sparse_walk_keys_match_tuple_reference(source):
    # the key tables are as long as the largest key, not the number of keys
    g = WALK_SOURCES[source]()
    walks = _scrambled_walks(g)
    ref_walks = [[(97 * v + 11, ("e", e)) for v, e in w] for w in walks]
    rot, front, vmap, emap = _reference_from_walks(
        ref_walks, frontier_keys={97 * v + 11 for v in g.frontier}
    )
    built = RotationGraph.from_walks(
        *_flat(walks, lambda v: 97 * v + 11, lambda e: 1000 * e + 3),
        frontier=[97 * v + 11 for v in g.frontier] + [5, 10**6],
    )
    assert built.graph.rotations == rot
    assert built.graph.frontier == front
    assert dict(zip(built.vertex_key.tolist(), range(g.n_vertices))) == vmap
    edge_keys = built.edge_key.tolist()
    assert {("e", (k - 3) // 1000): e for e, k in enumerate(edge_keys)} == emap

    # keep: keys below it are ids, sparse keys above it follow by first sight
    keep = g.n_vertices // 2
    key = lambda v: v if v < keep else 97 * v + 11  # noqa: E731
    ref_walks = [[(key(v), ("e", e)) for v, e in w] for w in walks]
    ref = _reference_from_walks(ref_walks, frontier_keys={key(v) for v in g.frontier})
    rot, front, vmap = _reference_keep_originals(*ref[:3], keep)
    built = RotationGraph.from_walks(
        *_flat(walks, key, lambda e: 1000 * e + 3),
        keep=keep,
        frontier=[key(v) for v in g.frontier],
    )
    assert built.graph.rotations == rot
    assert built.graph.frontier == front
    assert dict(zip(built.vertex_key.tolist(), range(g.n_vertices))) == vmap
    faces = trace_faces(built.graph)
    fresh = trace_faces(_dart_graph(rot, front))
    assert faces.darts.tolist() == fresh.darts.tolist()
    assert faces.offsets.tolist() == fresh.offsets.tolist()


def test_malformed_rotations_rejected():
    with pytest.raises(GraphError, match="out of range"):
        _dart_graph([[0, 5], [1, 2]])
    with pytest.raises(GraphError, match="appears twice"):
        _dart_graph([[0, 0], [1, 1]])
    with pytest.raises(GraphError, match="odd number"):
        _dart_graph([[0], [1], [2]])


@pytest.mark.parametrize(
    "darts, offsets, message",
    [
        ([0, 1], [0, 4], "offsets end at 4, but there are 2 darts"),
        ([0, 1, 2, 3], [0, 3, 2], "offsets decrease at vertex 1"),
        ([0, 1], [], "1-D"),
        ([0, 1], [[0, 1], [1, 2]], "1-D"),
        ([[0, 1]], [0, 1, 2], "1-D"),
        ([0, 1], [1, 1, 2], "offsets start at 1, not 0"),
        ([0, 1], [0, 1], "offsets end at 1, but there are 2 darts"),
    ],
)
def test_malformed_offsets_rejected(darts, offsets, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        RotationGraph(darts, offsets)


def test_degree_rejects_a_vertex_out_of_range():
    from speiserlab.speiser import speiser_ball

    g = speiser_ball(4)
    assert g.degree(g.n_vertices - 1) == g.rot_offsets[-1] - g.rot_offsets[-2]
    for v in (-1, g.n_vertices):
        with pytest.raises(GraphError, match=f"vertex {v} out of range"):
            g.degree(v)


# Graph JSON digests of the four rewrites, recorded with the tuple-keyed
# implementation they replaced; the RefinementMap digests were recorded from
# the arrays once they matched that implementation's dict maps.
def _sha(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _map_sha(rmap) -> str:
    return _sha(
        json.dumps(
            [
                rmap.origin_kind.tolist(),
                rmap.origin.tolist(),
                rmap.edge_cover.tolist(),
                rmap.face_owner.tolist(),
            ]
        )
    )


def test_rewrite_outputs_pinned():
    from speiserlab.refinement import subdivide4
    from speiserlab.speiser import (
        GrowthSchedule,
        extend_speiser,
        lambda_triangulation,
        tree_replace,
    )

    gam = _small_gamma()
    assert _sha(to_json(gam)) == "27387f4c45cdc169"
    stretched = tree_replace(path_graph(1), GrowthSchedule((5,)))
    assert _sha(to_json(stretched)) == "5608ff3a16df9dbf"
    pinned = {
        "lambda": ("69078f43eef43278", "20c223244228b9ad"),
        "lambda_grid": ("2a3ce7fc629fe954", "b448d6313f39467f"),
        "subdivide4": ("081e616c1baecf8d", "02545d9805319b98"),
        "subdivide4_octahedron": ("965bb6863949057f", "5b18eb225730835e"),
    }
    outputs = {
        "lambda": lambda_triangulation(gam, with_map=True),
        "lambda_grid": lambda_triangulation(grid_patch(3, 2), with_map=True),
        "subdivide4": subdivide4(triangular_ball(8, 3)),
        "subdivide4_octahedron": subdivide4(octahedron()),
    }
    for name, (graph, rmap) in outputs.items():
        assert (_sha(to_json(graph)), _map_sha(rmap)) == pinned[name], name
    assert _sha(to_json(extend_speiser(gam, 2))) == "b6beb2e0d5a35096"
    assert _sha(to_json(extend_speiser(cube(), 3))) == "c79215ccdec791b0"


def test_dual_outputs_pinned():
    # Graph JSON digests of both dual paths, recorded with the face-record
    # implementation: drop_frontier_faces on a truncation, darts kept as they
    # are on a frontier-free map
    from speiserlab.speiser import build_octagonal_speiser

    assert _sha(to_json(dual(triangular_ball(8, 7)))) == "fac0c8aa77ecda5e"
    assert _sha(to_json(dual(build_octagonal_speiser(5)))) == "721b701960258085"
    assert _sha(to_json(dual(cube()))) == "12c41b3c92c3915b"
    assert _sha(to_json(dual(grid_patch(4, 3)))) == "6007c5de6112662d"


def test_dual_rejects_edge_with_one_face():
    with pytest.raises(GraphError, match="edge 0 has the same face on both sides"):
        dual(path_graph(2))


def _reference_two_coloring(g):
    """Queue BFS that stops at the first edge inside one color class."""
    from collections import deque

    color = [None] * g.n_vertices
    color[0] = "circle"
    queue = deque([0])
    while queue:
        v = queue.popleft()
        other = "cross" if color[v] == "circle" else "circle"
        for d in g.rotations[v]:
            w = g.dart_vertex[d ^ 1]
            if color[w] is None:
                color[w] = other
                queue.append(w)
            elif color[w] == color[v]:
                return None
    return dict(enumerate(color))


def _reference_p_of(g):
    best = -1
    for e in range(g.n_edges):
        u, v = g.dart_vertex[2 * e : 2 * e + 2].tolist()
        if u not in g.frontier and v not in g.frontier:
            best = max(best, min(g.degree(u), g.degree(v)))
    return best if best >= 0 else None


def test_classify_and_coloring_match_loop_reference():
    # the graphs of test_rewrite_outputs_pinned, plus odd and even cycles and
    # a frontier-only edge set
    from speiserlab.refinement import subdivide4
    from speiserlab.speiser import GrowthSchedule, lambda_triangulation, tree_replace

    gam = _small_gamma()
    graphs = [
        gam,
        tree_replace(path_graph(1), GrowthSchedule((5,))),
        lambda_triangulation(gam),
        lambda_triangulation(grid_patch(3, 2)),
        subdivide4(triangular_ball(8, 3))[0],
        subdivide4(octahedron())[0],
        cycle_graph(5),
        cycle_graph(6),
        triangular_ball(8, 1),
    ]
    for g in graphs:
        colors = two_coloring(g)
        assert colors == _reference_two_coloring(g)
        c = classify(g)
        assert c.is_bipartite == (colors is not None)
        assert c.p_of == _reference_p_of(g)
        assert type(c.p_of) in (int, type(None))
        inner = [len(g.rotations[v]) for v in range(g.n_vertices) if v not in g.frontier]
        assert c.max_degree == max(inner, default=None)
        assert c.homogeneous_degree == (inner[0] if len(set(inner)) == 1 else None)


# -- flat rotation arrays against the list-based references ------------------


def _reference_from_rotations(incidence):
    """Per-vertex dart lists from edge-id lists, scanning slot by slot."""
    seen_once = {}
    rotations = []
    for v, inc in enumerate(incidence):
        rot = []
        for e in inc:
            if e in seen_once:
                if seen_once[e] == -1:
                    raise GraphError(f"edge {e} appears more than twice")
                rot.append(2 * e + 1)
                seen_once[e] = -1
            else:
                seen_once[e] = v
                rot.append(2 * e)
        rotations.append(rot)
    unmatched = [e for e, s in seen_once.items() if s != -1]
    if unmatched:
        raise GraphError(f"edges with a single endpoint: {sorted(unmatched)}")
    return rotations


def _reference_bfs_layers(g, root):
    """Queue BFS over the rotation lists, then one pass over the edges."""
    from collections import deque

    rotations, vertex = g.rotations, g.dart_vertex.tolist()
    dist = [-1] * g.n_vertices
    dist[root] = 0
    order = [root]
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for d in rotations[v]:
            w = vertex[d ^ 1]
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                order.append(w)
                queue.append(w)
    depth = max(dist[v] for v in order)
    spheres = [[] for _ in range(depth + 1)]
    for v in sorted(order):
        spheres[dist[v]].append(v)
    cut_edges = [[] for _ in range(depth)]
    for e in range(g.n_edges):
        du, dv = dist[vertex[2 * e]], dist[vertex[2 * e + 1]]
        if du >= 0 and dv >= 0 and abs(du - dv) == 1:
            cut_edges[min(du, dv)].append(e)
    frontier_dists = [dist[v] for v in g.frontier if dist[v] != -1]
    reliable = min(frontier_dists) if frontier_dists else depth
    return spheres, cut_edges, dist, depth, reliable


def _reference_induced_ball(g, layers, n):
    """Rotations, frontier and tags of B(n), renumbered through dicts."""
    rotations, ends = g.rotations, g.dart_vertex.tolist()
    keep = [v for v in range(g.n_vertices) if 0 <= layers.dist[v] <= n]
    new_vid = {v: i for i, v in enumerate(keep)}
    kept_edges = [e for e in range(g.n_edges) if set(ends[2 * e : 2 * e + 2]) <= set(new_vid)]
    new_eid = {e: i for i, e in enumerate(kept_edges)}
    out, frontier = [], set()
    for v in keep:
        rot = [2 * new_eid[d >> 1] + (d & 1) for d in rotations[v] if d >> 1 in new_eid]
        out.append(rot)
        if len(rot) < len(rotations[v]) or layers.dist[v] == n or v in g.frontier:
            frontier.add(new_vid[v])
    tags = {new_vid[v]: t for v, t in (g.tags or {}).items() if v in new_vid}
    return out, frontier, tags or None


def _reference_graphs():
    from speiserlab.speiser import GrowthSchedule, build_octagonal_speiser
    from speiserlab.theorem1 import build_gamma

    return {
        "gamma": build_gamma(2, GrowthSchedule((21, 8103))),
        "tri6": triangular_ball(6, 6),
        "tri8": triangular_ball(8, 5),
        "tree": regular_tree(3, 5),
        "grid": grid_patch(6, 5),
        "square": square_ball(5),
        "octagonal": build_octagonal_speiser(3),
    }


def test_bfs_layers_and_induced_ball_match_loop_references():
    for name, g in _reference_graphs().items():
        for root in (0, 3):
            layers = bfs_layers(g, root)
            spheres, cut_edges, dist, depth, reliable = _reference_bfs_layers(g, root)
            assert (layers.root, layers.depth, layers.reliable_depth) == (
                root,
                depth,
                reliable,
            ), (name, root)
            assert layers.dist.dtype == np.int64
            assert layers.dist.tolist() == dist, (name, root)
            # S(n) and E(n) as read off dist, and the derived sizes
            assert [
                np.flatnonzero(layers.dist == n).tolist() for n in range(depth + 1)
            ] == spheres
            du, dv = layers.dist[g.dart_vertex[0::2]], layers.dist[g.dart_vertex[1::2]]
            cut = du != dv
            assert [
                np.flatnonzero(cut & (np.minimum(du, dv) == n)).tolist()
                for n in range(depth)
            ] == cut_edges
            assert layers.sphere_sizes() == [len(x) for x in spheres]
            assert layers.ball_sizes() == np.cumsum(layers.sphere_sizes()).tolist()
            assert layers.cut_sizes() == [len(x) for x in cut_edges]
            assert all(type(x) is int for x in layers.cut_sizes() + layers.ball_sizes())
        layers = bfs_layers(g, 0)
        for n in range(min(layers.reliable_depth, 4) + 1):
            ball = induced_ball(g, n)
            want = _reference_induced_ball(g, layers, n)
            assert (ball.rotations, ball.frontier, ball.tags) == want, (name, n)


def test_from_rotations_matches_loop_reference():
    rng = np.random.default_rng(7)
    for g in (square_ball(3), regular_tree(3, 3), triangular_ball(8, 2), cycle_graph(2)):
        incidence = [[d >> 1 for d in rot] for rot in g.rotations]
        # relabel the edges so that first appearances differ from edge order
        label = rng.permutation(g.n_edges)
        incidence = [[int(label[e]) for e in inc] for inc in incidence]
        built = RotationGraph.from_rotations(incidence)
        assert built.rotations == _reference_from_rotations(incidence)


@pytest.mark.parametrize(
    "incidence",
    [
        [[0, 1], [1, 0], [1, 2], [0, 2]],  # edge 1 recurs first, then edge 0
        [[2, 0], [0, 2], [2], [0]],
        [[5, 0], [0, 3], [7]],  # unmatched ids, reported sorted
        [[0, 1], [1, 0, 4], [4, 9, 9, 9]],
    ],
)
def test_from_rotations_errors_match_loop_reference(incidence):
    with pytest.raises(GraphError) as want:
        _reference_from_rotations(incidence)
    with pytest.raises(GraphError) as got:
        RotationGraph.from_rotations(incidence)
    assert str(got.value) == str(want.value)


def test_rotation_arrays_are_read_only_int64():
    tri = triangular_ball(6, 3)
    for g in (tri, dual(octahedron()), induced_ball(tri, 2), _small_gamma()):
        for arr in (g.rot_darts, g.rot_offsets, g.dart_vertex, g.rot_succ):
            assert arr.dtype == np.int64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        assert g.rotations == [
            g.rot_darts[a:b].tolist() for a, b in zip(g.rot_offsets, g.rot_offsets[1:])
        ]
        g.rotations[0].append(-1)  # a fresh copy on each access
        assert g.rotations[0][-1] != -1
        assert type(g.degree(0)) is int
    # a graph built from another graph's face arrays leaves those writeable
    octa = octahedron()
    dual(octa)
    assert trace_faces(octa).darts.flags.writeable
