"""The benchmark's output checks read the library's record fields.

``perfbench/workloads.py`` reduces each operation's result to an observation
by reading fields of the library's records (``DoyleReport.cut_sizes``,
``CirclePacking.interior``, ``HSReport.all_pass()`` ...).  A retired or
renamed field would only fail the benchmark, so this test runs the observe
helpers on tiny inputs and checks that each observation has the keys of
its operation in ``perfbench/reference.json``.
"""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from speiserlab import cli, fatness, graph_core, lattices, packing, refinement, walk
from speiserlab.speiser import GrowthSchedule, extend_speiser, lambda_triangulation
from speiserlab.theorem1 import build_gamma

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def wl():
    return _load_workloads()


@pytest.fixture(scope="module")
def gamma():
    return build_gamma(2, GrowthSchedule((3, 5)))


def _check(wl, workload: str, op: str, obs: dict) -> None:
    assert set(obs) == set(REFERENCE[workload][op]), op
    assert wl.compare(obs, obs) == []


def test_construct_gamma_observations(wl, gamma):
    ball = lattices.triangular_ball(8, 2)
    sub, rmap = refinement.subdivide4(ball)
    observed = {
        "build_gamma": wl._graph_counts(gamma, faces=False),
        "bfs_layers": wl._layers_observe(graph_core.bfs_layers(gamma, 0)),
        "lambda_triangulation": wl._graph_counts(lambda_triangulation(gamma)),
        "extend_speiser": wl._graph_counts(extend_speiser(gamma, 2)),
        "dual": wl._graph_counts(graph_core.dual(lattices.triangular_ball(8, 3))),
        "subdivide4": wl._refinement_observe(
            (sub, refinement.check_refinement(ball, sub, rmap))
        ),
        "doyle_test": wl._doyle_observe(walk.doyle_test(gamma, 4, 0, 4)),
    }
    for op, obs in observed.items():
        _check(wl, "construct-gamma", op, obs)
    assert observed["doyle_test"]["radii"] == [1, 2, 3, 4]


def test_packing_fat_observations(wl):
    trend = packing.ratio_trend(lambda n: lattices.triangular_ball(6, n), [2, 3, 4])
    _check(wl, "packing-fat", "ratio_trend_hex", wl._trend_observe(trend))
    for q, boundary, op in (
        (6, packing.MAXIMAL, "pack_maximal_hex16"),
        (8, packing.EUCLIDEAN, "pack_euclidean_tri8_4"),
    ):
        pk = packing.pack_disk(lattices.triangular_ball(q, 2), boundary=boundary)
        _check(wl, "packing-fat", op, wl._packing_observe((pk, packing.verify_packing(pk))))
    pk = packing.pack_disk(lattices.triangular_ball(6, 2), boundary=packing.EUCLIDEAN)
    col = packing.inscribed_collection(pk)
    obs = wl._hs_observe((col, fatness.check_hs(None, col, seed=1)))
    _check(wl, "packing-fat", "check_hs_hex3", obs)
    assert obs["all_pass"] is True


def test_theorem1_observation(wl, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "schedule": [3, 5],
                "growth_k_min": 2,
                "growth_k_max": 8,
                "upsilon_k_min": 2,
                "upsilon_k_max": 8,
                "resistance_radii": [1, 2, 3, 4],
                "vel_annuli": [[1, 2], [2, 4]],
                "ratio_ns": [2, 3, 4],
                "doyle_n_max": 4,
                "doyle_grid_depth": 4,
            }
        )
    )
    out = tmp_path / "theorem1.json"
    assert cli.main(["theorem1", "--config", str(cfg), "-o", str(out)]) == 0
    p = SimpleNamespace(report_sha256=None, unconverged=None)
    obs = wl._theorem1_observe(p, out)
    _check(wl, "theorem1-default", "theorem1", obs)
    assert p.unconverged == 0 and len(p.report_sha256) == 64
