"""Command-line surface.

Subcommands, each kind with only the flags it reads (the README's CLI
section tables them):
  gen       octagonal | gamma | lambda | extend | subdivide4 | dual
  analyze   vel | resistance | nash-williams | doyle | ratio-trend | fatness
  theorem1  run both evidence legs and write the report

Every flag is checked before any file is read.  Its argparse type applies
the library's rule to its value (``GrowthSchedule``, ``check_radii``,
``check_annuli``, ``check_grid_depth``, ``PlanarSet``); a flag that the
kind does not read is an unrecognized argument; ``analyze doyle`` checks
its two depths together before it reads the graph.  Only the ``--root``
range waits for the graph.

``gen gamma`` is ``theorem1.build_gamma``: a depth past the schedule's
length is a usage error.  ``gen lambda``, ``extend`` and ``subdivide4``
rewrite the interior faces of ``graph_core.interior_face_mask``, the faces
off the frontier; a frontier-free input has no outer face, so all its faces
are rewritten.  ``analyze nash-williams`` stops at the reliable depth of
the input's BFS layering, past which a truncation shrinks the cuts.

Exit codes: 0 success, 2 usage error (bad flags, missing files), 3 numeric
non-convergence (diagnostics still written).  Identical argv and input files
produce byte-identical outputs under the same BLAS thread count: the sparse
LU's BLAS calls sum in an order that follows the thread count, which can
move the last bits of a ``theorem1`` report.  Every report embeds the seed it
used.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import SolverError, SpeiserLabError
from .fatness import PlanarSet, fatness_estimate, fatness_pairs
from .graph_core import bfs_layers, build_graph, dual, induced_ball, to_json
from .lattices import triangular_ball
from .packing import EUCLIDEAN, pack_disk, packing_to_svg, ratio_trend
from .refinement import subdivide4
from .speiser import GrowthSchedule, build_octagonal_speiser, check_grid_depth
from .speiser import extend_speiser, lambda_triangulation
from .theorem1 import Theorem1Config, build_gamma, run_theorem1
from .vel import check_annuli, vel_type_trend
from .walk import check_doyle_depth, check_radii, doyle_test
from .walk import nash_williams_sum, resistance_curve

DEFAULT_SEED = 20080


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_graph(path: str):
    p = Path(path)
    if not p.exists():
        raise UsageError(f"graph file not found: {path}")
    try:
        return build_graph(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"graph file {path} is not valid JSON: {exc}") from exc


class UsageError(SpeiserLabError):
    pass


def _flag(what: str, need: str, parse, rule=None):
    """An argparse type: ``parse`` reads a flag's text and ``rule``, the
    library's check, judges the value.  Text that ``parse`` cannot read
    fails with ``need``, a value that the rule rejects with its message."""

    def read(text: str):
        try:
            value = parse(text)
            if rule is not None:
                rule(value)
            return value
        except ValueError:
            reason = f"need {need}"
        except SpeiserLabError as exc:
            reason = str(exc)
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}: {reason}")

    return read


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _pairs(text: str) -> list[tuple[int, int]]:
    return [(int(a), int(b)) for a, b in (part.split(":") for part in text.split(","))]


def _disks(text: str) -> PlanarSet:
    disks = [[float(t) for t in part.split(",")] for part in text.split(";")]
    return PlanarSet(tuple((complex(x, y), r) for x, y, r in disks))


def _json_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_schedule = _flag("schedule", "odd integers", lambda t: GrowthSchedule(tuple(_ints(t))))
_grid_depth = _flag("grid depth", "an integer", int, check_grid_depth)
_radius = _flag("radius", "an integer", int, lambda n: check_radii([n]))
_radii = _flag("radii", "integers n >= 1", _ints, check_radii)
_annuli = _flag("annuli spec", "inner:outer,...", _pairs, check_annuli)
GRAPH = dict(required=True, help="input graph JSON")

# each command group's flags by name; a kind declares only those it reads
GEN_FLAGS = {
    "--depth": dict(type=int, default=2, help="ball radius"),
    "--schedule": dict(type=_schedule, default="21,8103", help="odd tree lengths"),
    "--graph": GRAPH,
    "--grid-depth": dict(type=_grid_depth, default=4),
}
ANALYZE_FLAGS = {
    "--graph": GRAPH,
    "--root": dict(type=int, default=0),
    "--n-max": dict(type=_radius, default=6),
    "--grid-depth": dict(type=int, default=8),
    "--annuli": dict(type=_annuli, default="1:2,2:4,3:6"),
    "--family": dict(default="hex", choices=["hex", "tri8"]),
    "--ns": dict(type=_radii, default="2,3,4,5", help="ratio-trend ball radii"),
    "--disks": dict(type=_flag("disks", "x,y,r;x,y,r;...", _disks), default="0,0,1"),
    "--n-radii": dict(type=int, default=8),
    "--seed": dict(type=int, default=DEFAULT_SEED),
}

# each kind: the flags it reads besides -o, and what it computes
GEN = {
    "octagonal": (["--depth"], lambda a: build_octagonal_speiser(a.depth)),
    "gamma": (["--depth", "--schedule"], lambda a: build_gamma(a.depth, a.schedule)),
    "lambda": (["--graph"], lambda a: lambda_triangulation(_read_graph(a.graph))),
    "extend": (
        ["--graph", "--grid-depth"],
        lambda a: extend_speiser(_read_graph(a.graph), a.grid_depth),
    ),
    "subdivide4": (["--graph"], lambda a: subdivide4(_read_graph(a.graph))[0]),
    "dual": (["--graph"], lambda a: dual(_read_graph(a.graph))),
}


def _resistance(a) -> dict:
    radii = list(range(1, a.n_max + 1))
    return resistance_curve(_read_graph(a.graph), a.root, radii).to_dict()


def _nash_williams(a) -> dict:
    # the cuts |E(k)| are reliable for k < reliable_depth only
    layers = bfs_layers(_read_graph(a.graph), a.root)
    cuts = layers.cut_sizes()[: layers.reliable_depth]
    return {
        "partial_sums": nash_williams_sum(cuts),
        "cut_sizes": cuts,
        "reliable_depth": layers.reliable_depth,
    }


def _doyle(a) -> dict:
    check_doyle_depth(a.n_max, a.grid_depth)
    return doyle_test(_read_graph(a.graph), a.grid_depth, a.root, a.n_max).to_dict()


def _ratio_trend(a) -> dict:
    # every ball B(n) is cut from one lattice of radius max(ns)
    lattice = triangular_ball({"hex": 6, "tri8": 8}[a.family], max(a.ns))
    return ratio_trend(lambda n: induced_ball(lattice, n), a.ns).to_dict()


def _fatness(a) -> dict:
    tau = fatness_estimate(a.disks, n_radii=a.n_radii, seed=a.seed)
    pairs = len(fatness_pairs(a.disks, n_radii=a.n_radii, seed=a.seed)[1])
    return {"tau_hat": tau, "seed": a.seed, "pairs": pairs}


ANALYZE = {
    "vel": (
        ["--graph", "--root", "--annuli"],
        lambda a: vel_type_trend(_read_graph(a.graph), a.root, a.annuli).to_dict(),
    ),
    "resistance": (["--graph", "--root", "--n-max"], _resistance),
    "nash-williams": (["--graph", "--root"], _nash_williams),
    "doyle": (["--graph", "--root", "--n-max", "--grid-depth"], _doyle),
    "ratio-trend": (["--family", "--ns"], _ratio_trend),
    "fatness": (["--disks", "--n-radii", "--seed"], _fatness),
}


def _cmd(args) -> int:
    _write(args.output, args.render(args.run(args)))
    return 0


def _cmd_theorem1(args) -> int:
    if args.config == "default":
        config = Theorem1Config(seed=args.seed)
    else:
        p = Path(args.config)
        if not p.exists():
            raise UsageError(f"config file not found: {args.config}")
        try:
            # absent keys keep their defaults; the config checks the rest
            config = Theorem1Config(**json.loads(p.read_text()))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad config {args.config}: {exc}") from exc
    report = run_theorem1(config)
    _write(args.output, report.to_json())
    if args.svg is not None:
        packed = pack_disk(triangular_ball(8, 3), boundary=EUCLIDEAN)
        Path(args.svg).write_text(packing_to_svg(packed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="speiserlab",
        description="Speiser-graph constructions, extremal length, circle "
        "packings and recurrence tests.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    groups = [
        ("gen", "generate or transform graphs", GEN_FLAGS, GEN, to_json),
        ("analyze", "run an estimator on a graph", ANALYZE_FLAGS, ANALYZE, _json_report),
    ]
    for name, text, flags, kinds, render in groups:
        group = sub.add_parser(name, help=text).add_subparsers(dest="kind", required=True)
        for kind, (names, run) in kinds.items():
            p = group.add_parser(kind)
            for flag in names:
                p.add_argument(flag, **flags[flag])
            p.add_argument("-o", "--output", default=None)
            p.set_defaults(func=_cmd, run=run, render=render)

    th = sub.add_parser("theorem1", help="full two-leg evidence run")
    th.add_argument("--config", default="default", help="'default' or a JSON file")
    seed_help = "recorded in the report only: the run is deterministic and uses no seed"
    th.add_argument("--seed", type=int, default=DEFAULT_SEED, help=seed_help)
    th.add_argument("--svg", default=None, help="also draw a packed patch to this file")
    th.add_argument("-o", "--output", default=None)
    th.set_defaults(func=_cmd_theorem1)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SolverError as exc:
        diag = _json_report({"error": str(exc), "diagnostics": exc.diagnostics})
        if getattr(args, "output", None):
            _write(args.output, diag)
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3
    except SpeiserLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
