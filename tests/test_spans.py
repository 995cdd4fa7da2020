"""The benchmark's trace hooks bind the library's parameter names.

``perfbench/spans.py`` reads the arguments and results of the functions it
wraps; a renamed parameter or result field breaks only traced runs.  This
test runs each hooked function of ``fatness``, ``packing`` and ``vel`` once
under the tracer, on tiny inputs, and every hook of ``walk`` and
``graph_core``.
"""

import importlib.util
from pathlib import Path

import speiserlab.cli  # noqa: F401  (the tracer wraps functions in every module)
from speiserlab import fatness, graph_core, lattices, packing, theorem1, vel, walk
from speiserlab.speiser import GrowthSchedule

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_count_fatness_packing_and_vel():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op("tiny"):
            p = packing.pack_disk(lattices.triangular_ball(6, 2), boundary=packing.EUCLIDEAN)
            packing.pack_disk(lattices.triangular_ball(8, 2), boundary=packing.MAXIMAL)
            col = packing.inscribed_collection(p)
            fatness.check_hs(None, col, samples=300, seed=1)
            fatness.fatness_estimate(
                fatness.PlanarSet.disk(), n_samples=100, n_radii=2, seed=1, n_centers=2
            )
            g = lattices.triangular_ball(6, 3)
            vel.solve_vel(g, {0}, set(g.frontier))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for name in ("packing.pack_disk", "fatness.check_hs", "fatness.fatness_estimate", "vel.solve_vel"):
        assert summary["calls"].get(name, 0) > 0, name
    for key in (
        "packing.sweeps",
        "packing.corner_evals",
        "fatness.mc_points",
        "vel.outer_iterations",
        "vel.constraints",
    ):
        assert summary["counts"].get(key, 0) > 0, key
    # uninstall restores the library's own functions
    assert "traced" not in fatness.check_hs.__code__.co_name


def test_trace_hooks_count_walk_and_graph_core():
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.op("tiny"):
            gamma = theorem1.build_gamma(2, GrowthSchedule((3, 5)))
            graph_core.build_graph(graph_core.to_json(gamma))
            graph_core.trace_faces(graph_core.dual(lattices.triangular_ball(8, 3)))
            walk.resistance_curve(lattices.triangular_ball(8, 3), 0, [1, 2])
            walk.doyle_test(gamma, 4, 0, 4)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    hooked = [
        spans.span_name(module, attr)
        for module, attr, _ in spans.TARGETS
        if module in ("walk", "graph_core")
    ]
    assert len(hooked) == 10
    for name in hooked:
        assert summary["calls"].get(name, 0) > 0, name
    for key in ("graph_core.darts_built", "walk.solves"):
        assert summary["counts"].get(key, 0) > 0, key
    assert "traced" not in walk.doyle_test.__code__.co_name
