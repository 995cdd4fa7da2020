"""Guards on the package's call signatures.

A BFS layering is read from ``bfs_layers(g, root)``, cached on the graph, so
no function takes a layering as an argument; ``dual`` always drops the faces
at a truncation's frontier; a packing's boundary is its graph's frontier,
with Euclidean radii 1, and its root is vertex 0; a refinement map is four
arrays that the one midpoint subdivision builder reads off its walks, and a
v-metric is a plain array.  Interior faces follow one rule,
``interior_face_mask(g)``; tags reach a graph only when it is made
(``RotationGraph._flat`` or ``two_colored``), and no module outside
``graph_core`` assigns an attribute of a graph; an SVG always draws the
nerve.  Records serialize from their fields, and
fields that nothing read are gone.  ``extended_layer_counts`` counts the
true extension only (a truncated grid is counted on the ball that
``doyle_test`` solves), and ``effective_resistance`` is gone; isomorphism
never reflects, and the extension ball always names its grid depth.  Code
that no workflow ran is gone: the packing JSON dump, three ``PlanarSet``
methods, schedule indexing and the identity refinement map.  So is the
config's ``dual_depth``, which bounded radii and nothing else, and every
``gen`` and ``analyze`` kind takes only the flags it reads.  These tests
keep such knobs and wrappers from coming back.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import speiserlab
from speiserlab.cli import build_parser, main
from speiserlab.fatness import HSReport, PlanarSet
from speiserlab.graph_core import (
    RotationGraph,
    bfs_layers,
    canonical_form,
    dual,
    is_isomorphic,
)
from speiserlab.lattices import triangular_ball
from speiserlab.packing import (
    MAXIMAL,
    CirclePacking,
    CpTypeReport,
    FatCollection,
    pack_disk,
    ratio_trend,
)
from speiserlab import refinement
from speiserlab.refinement import RefinementMap, RefinementReport
from speiserlab.speiser import (
    ExtendedLayerCounts,
    GrowthSchedule,
    extended_layer_counts,
    speiser_ball,
)
from speiserlab.theorem1 import (
    GrowthCheck,
    Theorem1Config,
    Theorem1Report,
    UpsilonCheck,
    verify_upsilon_bounds,
)
from speiserlab.walk import DoyleReport, upsilon_resistance_curve

REMOVED = {
    "layers",
    "drop_frontier_faces",
    "boundary_radii",
    "outer_face",
    "fatness_samples",
    "nerve",
    "rel_tol",
}


def _callables():
    """Every function, class and method defined in the package's modules."""
    for info in pkgutil.iter_modules(speiserlab.__path__):
        module = importlib.import_module(f"speiserlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for meth_name, meth in vars(obj).items():
                    fn = getattr(meth, "__func__", meth)
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{meth_name}", fn


def _parameters(obj):
    try:
        return list(inspect.signature(obj).parameters)
    except (TypeError, ValueError):  # a class without a signature
        return []


def test_no_callable_takes_a_layering_or_a_dual_mode():
    found = list(_callables())
    assert len(found) > 100
    bad = [(name, p) for name, obj in found for p in _parameters(obj) if p in REMOVED]
    assert bad == []


def test_layering_and_dual_entry_points():
    assert list(inspect.signature(bfs_layers).parameters) == ["g", "root"]
    assert list(inspect.signature(dual).parameters) == ["g"]
    assert type(speiser_ball(1)) is RotationGraph


def test_packing_entry_points():
    assert _parameters(pack_disk) == ["g", "boundary", "layout"]
    assert _parameters(ratio_trend) == ["ball_builder", "n_list"]


def test_refinement_entry_points():
    # the subdivision keys and the map read off them stay inside refinement
    assert not hasattr(refinement, "walk_refinement_map")
    assert not hasattr(speiserlab, "walk_refinement_map")
    assert not hasattr(speiserlab, "_midpoint_subdivision")
    fields = [f.name for f in dataclasses.fields(RefinementMap)]
    assert fields == ["origin_kind", "origin", "edge_cover", "face_owner"]
    assert not hasattr(speiserlab, "VMetric")


def test_tags_enter_only_through_flat():
    taking = [name for name, obj in _callables() if "tags" in _parameters(obj)]
    assert taking == ["speiserlab.graph_core.RotationGraph._flat"]


def test_no_module_outside_graph_core_assigns_a_graph_attribute():
    slots = set(RotationGraph.__slots__)
    bad = []
    for path in sorted(Path(speiserlab.__file__).parent.glob("*.py")):
        if path.name == "graph_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for t in ast.walk(target):
                    if isinstance(t, ast.Attribute) and t.attr in slots:
                        bad.append((path.name, node.lineno, t.attr))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setattr":
                bad.append((path.name, node.lineno, "setattr"))
    assert bad == []


def test_retired_record_fields_are_gone(theorem1_report):
    retired = {
        CirclePacking: {"boundary"},
        GrowthCheck: {"ball_sizes", "bound", "failing_k"},
        UpsilonCheck: {"sphere_bound", "sphere_sizes"},
        ExtendedLayerCounts: {"reliable_k", "base_sphere_sizes"},
        RefinementReport: {"is_semi_bounded", "is_bounded"},
        FatCollection: {"flags"},
        HSReport: {"note"},
        Theorem1Config: {"dual_depth"},
    }
    for cls, names in retired.items():
        assert not names & {f.name for f in dataclasses.fields(cls)}, cls
    # the root's hyperbolic radius is the packing's label[0]
    p = pack_disk(triangular_ball(8, 2), boundary=MAXIMAL, layout=False)
    assert "hyperbolic_radii_root" not in p.diagnostics
    # the Nash-Williams flags that could not fail are gone from the report
    leg_b = theorem1_report.leg_b
    assert [k for k in leg_b if k.startswith("nash_williams")] == ["nash_williams_tail"]


def test_code_no_workflow_ran_is_gone():
    assert not hasattr(speiserlab.packing, "packing_to_json")
    assert not hasattr(speiserlab.packing, "_sig12")
    for name in ("contains", "bounding_box", "diameter_bound"):
        assert not hasattr(PlanarSet, name), name
    assert not hasattr(GrowthSchedule, "__getitem__")
    assert not hasattr(RefinementMap, "identity")


def test_closed_form_counts_cover_the_true_extension_only():
    # truncated grids are counted on the ball that walk.doyle_test solves
    assert _parameters(extended_layer_counts) == ["g", "root", "k_max"]
    fields = [f.name for f in dataclasses.fields(ExtendedLayerCounts)]
    assert fields == ["sphere_sizes", "ball_sizes", "cut_sizes"]
    assert not hasattr(speiserlab.walk, "effective_resistance")
    assert not hasattr(speiserlab, "effective_resistance")


def test_records_serialize_from_their_fields():
    config = Theorem1Config()
    report = Theorem1Report(config=config, leg_a={}, leg_b={}, verdicts={})
    doyle = DoyleReport([], [1], [0.5], [0.25], [4], {"verdict": "v"}, None, "v")
    trend = CpTypeReport([2], [0.5], {"verdict": "v"}, "v")
    growth = GrowthCheck(25, 30, False, 27, 2, [25, 26])
    for record in (config, report, doyle, trend, growth):
        assert record.to_dict() == dataclasses.asdict(record)
    assert report.to_dict()["config"] == config.to_dict()


def test_no_constant_knobs():
    assert _parameters(verify_upsilon_bounds) == ["gamma", "k_max", "k_min"]
    assert "compact_connected" not in [f.name for f in dataclasses.fields(HSReport)]
    # isomorphism keeps orientation; an extension always names its grid depth
    assert _parameters(is_isomorphic) == ["a", "b"]
    assert _parameters(canonical_form) == ["g"]
    grid_depth = inspect.signature(upsilon_resistance_curve).parameters["grid_depth"]
    assert grid_depth.default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "lambda", "--graph", "g.json", "--outer-face", "1"],
        ["analyze", "fatness", "--samples", "9"],
    ],
)
def test_cli_has_no_removed_flags(argv, capsys):
    assert main(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


# the flags of each command group, and the ones each kind reads besides -o
GROUP_FLAGS = {
    "gen": ["--depth", "--schedule", "--graph", "--grid-depth", "-o"],
    "analyze": [
        "--graph", "--root", "--n-max", "--grid-depth", "--annuli", "--family",
        "--ns", "--disks", "--n-radii", "--seed", "-o",
    ],
}
KIND_FLAGS = {
    ("gen", "octagonal"): ["--depth"],
    ("gen", "gamma"): ["--depth", "--schedule"],
    ("gen", "lambda"): ["--graph"],
    ("gen", "extend"): ["--graph", "--grid-depth"],
    ("gen", "subdivide4"): ["--graph"],
    ("gen", "dual"): ["--graph"],
    ("analyze", "vel"): ["--graph", "--root", "--annuli"],
    ("analyze", "resistance"): ["--graph", "--root", "--n-max"],
    ("analyze", "nash-williams"): ["--graph", "--root"],
    ("analyze", "doyle"): ["--graph", "--root", "--n-max", "--grid-depth"],
    ("analyze", "ratio-trend"): ["--family", "--ns"],
    ("analyze", "fatness"): ["--disks", "--n-radii", "--seed"],
}
# a value that every kind reading the flag accepts
FLAG_VALUE = {
    "--depth": "2", "--schedule": "3,5", "--graph": "g.json", "--grid-depth": "4",
    "-o": "out.json", "--root": "0", "--n-max": "3", "--annuli": "1:2",
    "--family": "tri8", "--ns": "2,3", "--disks": "0,0,1", "--n-radii": "4",
    "--seed": "9",
}
PAIRS = [
    (command, kind, flag)
    for (command, kind) in KIND_FLAGS
    for flag in GROUP_FLAGS[command]
]


def test_cli_pair_count():
    declared = [p for p in PAIRS if p[2] in KIND_FLAGS[p[:2]] + ["-o"]]
    assert (len(PAIRS), len(declared)) == (96, 37)


@pytest.mark.parametrize("command, kind, flag", PAIRS, ids=" ".join)
def test_each_kind_takes_only_the_flags_it_reads(command, kind, flag, capsys):
    # a flag that another kind reads exits 2 before any file is read
    reads = KIND_FLAGS[command, kind]
    graph = ["--graph", "g.json"] if "--graph" in reads and flag != "--graph" else []
    argv = [command, kind, *graph, flag, FLAG_VALUE[flag]]
    if flag in reads + ["-o"]:
        args = build_parser().parse_args(argv)
        assert args.kind == kind
    else:
        assert main(argv) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
