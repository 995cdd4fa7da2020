import dataclasses
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from speiserlab import theorem1
from speiserlab.errors import FrontierError, GraphError, ScheduleError
from speiserlab.graph_core import bfs_layers, classify, is_isomorphic, trace_faces
from speiserlab.lattices import triangular_ball
from speiserlab.speiser import GrowthSchedule, speiser_ball
from speiserlab.theorem1 import (
    Theorem1Config,
    build_gamma,
    first_k_holding,
    paper_schedule,
    run_theorem1,
    verify_growth,
    verify_upsilon_bounds,
)
from speiserlab.vel import check_annuli
from speiserlab.walk import check_radii


def test_paper_schedule_values():
    # e^3 = 20.0855... -> 21; e^9 = 8103.0839... -> 8105 (odd ceiling)
    assert paper_schedule(0) == 21
    assert paper_schedule(1) == 8105
    assert math.exp(9) > 8103  # the oracle behind the 8105 value
    for n in range(3):
        assert paper_schedule(n) % 2 == 1
        assert paper_schedule(n) >= math.exp(3.0 ** (n + 1))
        assert paper_schedule(n) - 2 < math.exp(3.0 ** (n + 1))


def test_paper_schedule_rejects_large_n():
    with pytest.raises(ScheduleError):
        paper_schedule(3)


def test_build_gamma_identity_schedule():
    gamma = build_gamma(2, GrowthSchedule((1, 1)))
    assert is_isomorphic(gamma, speiser_ball(2))


def test_build_gamma_small_schedule_counts():
    gamma = build_gamma(1, GrowthSchedule((3,)))
    layers = bfs_layers(gamma, 0)
    for k in (1, 2, 3):
        assert layers.sphere_sizes()[k] == 3
    c = classify(gamma)
    assert c.is_bipartite and c.homogeneous_degree == 3


def test_build_gamma_paper_truncation_counts():
    gamma = build_gamma(2, GrowthSchedule((21, 8103)))
    # v0 + 3 trees of 20 internals + 3 originals + 6 trees of 8102 internals
    # + 6 originals at the far shell
    assert gamma.n_vertices == 1 + 3 * 20 + 3 + 6 * 8102 + 6
    layers = bfs_layers(gamma, 0)
    assert layers.reliable_depth == 21 + 8103
    assert layers.ball_sizes()[25] == 88  # exact count used by the ledger


def test_verify_growth_identity_schedule_fails_eventually():
    gamma = build_gamma(2, GrowthSchedule((1, 1)))
    # the unstretched graph grows too fast for k log k
    check = verify_growth(gamma, 2, bfs_layers(gamma, 0).reliable_depth)
    assert not check.holds_all


def test_verify_growth_small_k_reported_not_failed():
    gamma = build_gamma(2, GrowthSchedule((21, 8103)))
    check = verify_growth(gamma, 2, 100)
    # k = 2: bound 2 ln 2 < |B(2)| = 7; reported as failing k, with the
    # first-k-holding field carrying the "sufficiently large" threshold
    assert 2 in check.failing_k_head
    assert check.first_k_holding is None or check.first_k_holding > 2


def test_upsilon_bounds_small():
    gamma = build_gamma(2, GrowthSchedule((3, 5)))
    layers = bfs_layers(gamma, 0)
    check = verify_upsilon_bounds(gamma, layers.reliable_depth, k_min=2)
    assert math.isfinite(check.ball_constant)


def test_monotone_truncation_consistency():
    # a coarser truncation's tables are prefixes of a finer truncation's
    g1 = build_gamma(1, GrowthSchedule((5,)))
    g2 = build_gamma(2, GrowthSchedule((5, 7)))
    l1 = bfs_layers(g1, 0)
    l2 = bfs_layers(g2, 0)
    for k in range(l1.reliable_depth + 1):
        assert l1.sphere_sizes()[k] == l2.sphere_sizes()[k]


def test_run_theorem1_identity_schedule_flags_growth():
    config = Theorem1Config(
        schedule=(1, 1),
        growth_k_min=2,
        growth_k_max=10,
        upsilon_k_min=2,
        upsilon_k_max=6,
        resistance_radii=(1, 2, 3, 4),
        vel_annuli=((1, 2), (2, 4)),
        ratio_ns=(2, 3, 4),
        doyle_n_max=4,
        doyle_grid_depth=4,
    )
    report = run_theorem1(config)
    assert report.verdicts["leg_b_growth_bound"] == "fails"


def test_run_theorem1_even_schedule_errors():
    with pytest.raises(ScheduleError):
        Theorem1Config(schedule=(4, 8))


def test_run_theorem1_bad_schedule_fails_before_leg_a():
    # the config checks itself when built, so a bad one never reaches a run
    with pytest.raises(ScheduleError, match="tree length 4"):
        Theorem1Config(schedule=[4, 8])


@pytest.mark.parametrize(
    "bad",
    [
        {"ratio_ns": (0, 2)},
        {"vel_annuli": ((-1, 2),)},
        {"resistance_radii": (0, 1)},
        {"vel_annuli": ((1, 2), (2, 2))},
    ],
)
def test_run_theorem1_bad_leg_a_radius_fails_before_any_graph(bad):
    # the config applies the radius and annulus rules that resistance_curve,
    # vel_type_trend and the CLI apply, in their words
    ((name, value),) = bad.items()
    rule = check_annuli if name == "vel_annuli" else check_radii
    with pytest.raises(GraphError) as want:
        rule(value)
    with pytest.raises(GraphError, match=re.escape(str(want.value))):
        Theorem1Config(**bad)


def test_config_bounds_no_leg_a_radius_from_above():
    # leg A builds its lattice to the largest radius it reads, so a deep
    # radius costs a larger lattice and is no config error
    config = Theorem1Config(
        resistance_radii=(1, 8), vel_annuli=((3, 9),), ratio_ns=(2, 12)
    )
    assert config.vel_annuli == ((3, 9),)


@pytest.mark.parametrize("n_max, grid_depth", [(25, 24), (9, 8)])
def test_run_theorem1_doyle_past_grid_depth_fails_before_any_graph(n_max, grid_depth):
    with pytest.raises(FrontierError, match=f"exceeds the grid depth {grid_depth}"):
        Theorem1Config(doyle_n_max=n_max, doyle_grid_depth=grid_depth)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"growth_k_min": 0}, "growth_k_min"),
        ({"upsilon_k_min": 0}, "upsilon_k_min"),
        ({"upsilon_k_min": 1, "upsilon_k_max": 1}, "need 2 <= upsilon_k_min"),
        ({"growth_k_min": 9, "growth_k_max": 8}, "growth_k_min"),
        ({"upsilon_k_min": 30, "upsilon_k_max": 29}, "upsilon_k_min"),
        ({"doyle_n_max": 0}, "n_max = 0"),
    ],
)
def test_run_theorem1_bad_range_fails_before_any_graph(bad, message):
    with pytest.raises(FrontierError, match=message):
        Theorem1Config(**bad)


NON_INTEGER_CONFIGS = [
    {"growth_k_max": 8000.5},
    {"doyle_n_max": 24.0},
    {"ratio_ns": [2, 3, 4.0, 5, 6]},
    {"doyle_grid_depth": True},
    {"vel_annuli": [[1, 2], [2, 4.0]]},
]


@pytest.mark.parametrize("bad", NON_INTEGER_CONFIGS)
def test_non_integer_config_values_fail_before_any_graph(bad, monkeypatch):
    def no_graph(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(theorem1, "triangular_ball", no_graph)
    monkeypatch.setattr(theorem1, "build_gamma", no_graph)
    with pytest.raises(TypeError, match="must be integers"):
        Theorem1Config(**bad)


def test_config_is_frozen_and_holds_tuples():
    config = Theorem1Config(
        schedule=[3, 5], vel_annuli=[[1, 2], [2, 4]], resistance_radii=[1, 2], ratio_ns=[2]
    )
    assert config.schedule == (3, 5)
    assert config.vel_annuli == ((1, 2), (2, 4))
    assert (config.resistance_radii, config.ratio_ns) == ((1, 2), (2,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 8
    assert json.loads(json.dumps(config.to_dict()))["vel_annuli"] == [[1, 2], [2, 4]]


def test_bound_checks_reject_a_range_past_the_reliable_depth():
    # the unstretched graph is reliable to k = 2 only: [25, ...] checks
    # nothing, which must not read as "holds"
    gamma = build_gamma(2, GrowthSchedule((1, 1)))
    with pytest.raises(FrontierError, match="reliable depth 2"):
        verify_growth(gamma, 25, 8000)
    with pytest.raises(FrontierError, match="reliable depth 2"):
        verify_upsilon_bounds(gamma, 2000, k_min=25)


@pytest.mark.parametrize(
    "name, k_min, k_max, message",
    [
        ("growth", 0, 5, "need 1 <= growth_k_min <= growth_k_max: 0, 5"),
        ("growth", 6, 5, "need 1 <= growth_k_min <= growth_k_max: 6, 5"),
        ("upsilon", 0, 5, "need 2 <= upsilon_k_min <= upsilon_k_max: 0, 5"),
        ("upsilon", 1, 5, "need 2 <= upsilon_k_min <= upsilon_k_max: 1, 5"),
        ("upsilon", 6, 5, "need 2 <= upsilon_k_min <= upsilon_k_max: 6, 5"),
    ],
    ids=["growth-0", "growth-empty", "upsilon-0", "upsilon-1", "upsilon-empty"],
)
def test_bound_checks_share_the_config_k_range_rule(name, k_min, k_max, message):
    # ln 0 is undefined and the sphere bound 4 k ln k is 0 at k = 1: the
    # library functions reject the ranges the config rejects, in its words
    gamma = build_gamma(2, GrowthSchedule((3, 5)))
    with pytest.raises(FrontierError, match=message):
        Theorem1Config(**{f"{name}_k_min": k_min, f"{name}_k_max": k_max})
    with pytest.raises(FrontierError, match=message):
        if name == "growth":
            verify_growth(gamma, k_min, k_max)
        else:
            verify_upsilon_bounds(gamma, k_max, k_min=k_min)


def test_run_theorem1_cuts_leg_a_from_one_lattice(monkeypatch):
    calls = []

    def counted(q, depth):
        calls.append((q, depth))
        return triangular_ball(q, depth)

    monkeypatch.setattr(theorem1, "triangular_ball", counted)
    config = Theorem1Config(
        schedule=(3, 5),
        growth_k_min=2,
        growth_k_max=8,
        upsilon_k_min=2,
        upsilon_k_max=8,
        resistance_radii=(1, 2, 3, 4),
        vel_annuli=((1, 2), (2, 4)),
        ratio_ns=(2, 3, 5),
        doyle_n_max=4,
        doyle_grid_depth=4,
    )
    report = run_theorem1(config)
    assert calls == [(8, 5)]
    assert report.leg_a["resistance"]["radii"] == [1, 2, 3, 4]
    assert report.leg_a["ratio_trend"]["radii_list"] == [2, 3, 5]


def test_default_leg_a_builds_only_the_ball_it_reads(monkeypatch, theorem1_report):
    # every leg-A output reads B(6) or less
    depths = []

    def recorded(q, depth):
        depths.append(depth)
        return triangular_ball(q, depth)

    monkeypatch.setattr(theorem1, "triangular_ball", recorded)
    leg_a, _ = theorem1._leg_a(Theorem1Config())
    assert depths == [6]
    assert leg_a == theorem1_report.leg_a


def test_leg_a_runs_with_empty_radius_lists():
    # an empty ratio_ns once raised a bare TypeError from an empty max
    config = Theorem1Config(resistance_radii=(), vel_annuli=(), ratio_ns=())
    _, verdicts = theorem1._leg_a(config)
    assert set(verdicts.values()) == {"inconclusive"}


def _first_k_holding_brute(ok, k_min):
    for i in range(len(ok)):
        if all(ok[i:]):
            return k_min + i
    return None


@given(st.lists(st.booleans(), max_size=40), st.integers(-5, 50))
def test_first_k_holding_matches_definition(ok, k_min):
    assert first_k_holding(ok, k_min) == _first_k_holding_brute(ok, k_min)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_first_k_holding_constant_lists(n):
    assert first_k_holding([True] * n, 25) == (25 if n else None)
    assert first_k_holding([False] * n, 25) is None


def test_default_run_searches_each_graph_and_root_once(monkeypatch):
    # every layering comes from bfs_layers, cached on the graph per root:
    # a BFS is keyed here by the adjacency it searched and its root
    import hashlib

    from speiserlab import graph_core

    searches = {}
    search = graph_core.shortest_path

    def counted(adj, unweighted, indices):
        key = (
            adj.shape[0],
            hashlib.sha256(adj.indptr.tobytes() + adj.indices.tobytes()).hexdigest(),
            int(indices),
        )
        searches[key] = searches.get(key, 0) + 1
        return search(adj, unweighted=unweighted, indices=indices)

    monkeypatch.setattr(graph_core, "shortest_path", counted)
    report = run_theorem1()
    gamma_vertices = report.leg_b["gamma_vertices"]
    assert gamma_vertices == 48682
    assert [n for (size, _, root), n in searches.items() if size == gamma_vertices] == [1]
    assert set(searches.values()) == {1}
    assert {root for *_, root in searches} == {0}


def test_gamma_faces_are_traced_only_by_from_walks(monkeypatch):
    # trace_faces labels the face permutation's cycles by a directed
    # connected_components call over the darts; from_walks needs none
    from speiserlab import graph_core
    from speiserlab.walk import doyle_test

    traced = []
    components = graph_core.connected_components

    def counted(m, directed, **kwargs):
        if directed:
            traced.append(m.shape[0])
        return components(m, directed=directed, **kwargs)

    monkeypatch.setattr(graph_core, "connected_components", counted)
    gamma = build_gamma(2, GrowthSchedule((21, 8103)))
    doyle_test(gamma, 24, 0, 24)
    assert gamma.tags[0] == "circle" and len(trace_faces(gamma)) > 0
    assert traced and gamma.n_darts not in traced
