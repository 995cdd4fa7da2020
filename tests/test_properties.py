"""Cross-module property tests."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speiserlab.graph_core import (
    RotationGraph,
    bfs_layers,
    build_graph,
    to_json,
    to_json_dict,
)
from speiserlab.lattices import grid_patch, triangular_ball
from speiserlab.refinement import check_refinement, coarsen_metric, subdivide4
from speiserlab.vel import solve_vel

BASE = triangular_ball(8, 2)
REF, RMAP = subdivide4(BASE)
M_EDGE = check_refinement(BASE, REF, RMAP).m_edge

HEX = triangular_ball(6, 5)
HEX_LAYERS = bfs_layers(HEX, 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        min_size=REF.n_vertices,
        max_size=REF.n_vertices,
    )
)
def test_coarsen_square_sum_inequality_holds(weights):
    m = coarsen_metric(BASE, REF, RMAP, weights)
    lhs = sum(w * w for w in m)
    assert lhs <= 8 * M_EDGE * M_EDGE * sum(w * w for w in weights) + 1e-9


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
)
def test_vel_bounds_bracket_on_hex_annuli(inner, width):
    outer = inner + width
    support = [v for v in HEX.vertices() if inner <= HEX_LAYERS.dist[v] <= outer]
    A = set(np.flatnonzero(HEX_LAYERS.dist == inner).tolist())
    B = set(np.flatnonzero(HEX_LAYERS.dist == outer).tolist())
    est = solve_vel(HEX, A, B, support=support)
    assert est.lower <= est.upper + 1e-9
    assert est.lower > 0
    # the certificate metric reproduces the bound
    if math.isfinite(est.lower):
        from speiserlab.vel import metric_objective

        obj = metric_objective(HEX, A, B, est.metric)
        assert abs(obj["ratio"] - est.lower) <= 1e-9 * max(1.0, est.lower)


@settings(max_examples=15, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_union_fatness_never_below_quarter_of_tau(r1, r2, gap, seed):
    from speiserlab.fatness import PlanarSet, check_union_fat

    a = PlanarSet.disk(0j, r1)
    b = PlanarSet.disk(complex(gap * (r1 + r2), 0.0), r2)
    report = check_union_fat(
        a, b, tau=0.25, seed=seed, n_samples=2_000, n_radii=4, n_centers=6
    )
    assert report["passes"]


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.builds(triangular_ball, st.integers(6, 9), st.integers(1, 4)),
        st.builds(grid_patch, st.integers(2, 7), st.integers(2, 7)),
    ),
    st.data(),
)
def test_graph_json_round_trip_reproduces_arrays(g, data):
    vertices = st.integers(0, g.n_vertices - 1)
    tags = data.draw(st.dictionaries(vertices, st.sampled_from(["circle", 'x"ü'])))
    frontier = data.draw(st.frozensets(vertices)) | g.frontier
    g = RotationGraph._flat(g.rot_darts, g.rot_offsets, frontier, tags)
    text = to_json(g)
    assert text == json.dumps(to_json_dict(g), sort_keys=True, indent=2) + "\n"
    back = build_graph(text)
    assert np.array_equal(back.rot_darts, g.rot_darts)
    assert np.array_equal(back.rot_offsets, g.rot_offsets)
    assert (back.frontier, back.tags) == (g.frontier, g.tags)
