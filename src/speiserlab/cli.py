"""Command-line surface.

Subcommands:
  gen       octagonal | gamma | lambda | extend | subdivide4 | dual
  analyze   vel | resistance | nash-williams | doyle | ratio-trend | fatness
  theorem1  run both evidence legs and write the report

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
from .speiser import (
    GrowthSchedule,
    build_octagonal_speiser,
    extend_speiser,
    lambda_triangulation,
)
from .theorem1 import Theorem1Config, build_gamma, run_theorem1
from .vel import vel_type_trend
from .walk import check_doyle_depth, doyle_test, nash_williams_sum, resistance_curve

DEFAULT_SEED = 20080


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_graph(path: str | None):
    if path is None:
        raise UsageError("--graph is required")
    p = Path(path)
    if not p.exists():
        raise UsageError(f"graph file not found: {path}")
    try:
        return build_graph(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"graph file {path} is not valid JSON: {exc}") from exc


class UsageError(Exception):
    pass


def _parse_schedule(text: str) -> GrowthSchedule:
    try:
        lengths = tuple(int(x) for x in text.split(","))
        return GrowthSchedule(lengths)
    except (ValueError, SpeiserLabError) as exc:
        raise UsageError(f"bad schedule {text!r}: {exc}") from exc


def _parse_annuli(text: str) -> list[tuple[int, int]]:
    out = []
    try:
        for part in text.split(","):
            a, b = part.split(":")
            out.append((int(a), int(b)))
    except ValueError as exc:
        raise UsageError(f"bad annuli spec {text!r}") from exc
    return out


def _json_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "octagonal":
        g = build_octagonal_speiser(args.depth)
    elif kind == "gamma":
        g = build_gamma(args.depth, _parse_schedule(args.schedule))
    elif kind == "lambda":
        g = lambda_triangulation(_read_graph(args.graph))
    elif kind == "extend":
        g = extend_speiser(_read_graph(args.graph), args.grid_depth)
    elif kind == "subdivide4":
        g, _ = subdivide4(_read_graph(args.graph))
    elif kind == "dual":
        g = dual(_read_graph(args.graph))
    else:
        raise UsageError(f"unknown generator {kind!r}")
    _write(args.output, to_json(g))
    return 0


def _cmd_analyze(args) -> int:
    kind = args.kind
    if kind == "vel":
        g = _read_graph(args.graph)
        report = vel_type_trend(g, args.root, _parse_annuli(args.annuli))
        _write(args.output, _json_report(report.to_dict()))
    elif kind == "resistance":
        g = _read_graph(args.graph)
        curve = resistance_curve(g, args.root, list(range(1, args.n_max + 1)))
        _write(args.output, _json_report(curve.to_dict()))
    elif kind == "nash-williams":
        # the cuts |E(k)| are reliable for k < reliable_depth only
        layers = bfs_layers(_read_graph(args.graph), args.root)
        cuts = layers.cut_sizes()[: layers.reliable_depth]
        report = {
            "partial_sums": nash_williams_sum(cuts),
            "cut_sizes": cuts,
            "reliable_depth": layers.reliable_depth,
        }
        _write(args.output, _json_report(report))
    elif kind == "doyle":
        check_doyle_depth(args.n_max, args.grid_depth)
        g = _read_graph(args.graph)
        report = doyle_test(g, args.grid_depth, args.root, args.n_max)
        _write(args.output, _json_report(report.to_dict()))
    elif kind == "ratio-trend":
        q = {"hex": 6, "tri8": 8}[args.family]
        try:
            ns = [int(x) for x in args.ns.split(",")]
            if min(ns) < 1:
                raise ValueError
        except ValueError:
            raise UsageError(f"bad radii {args.ns!r}: need integers n >= 1") from None
        # every ball B(n) is cut from one lattice of radius max(ns)
        lattice = triangular_ball(q, max(ns))
        report = ratio_trend(lambda n: induced_ball(lattice, n), ns)
        _write(args.output, _json_report(report.to_dict()))
    elif kind == "fatness":
        disks = []
        try:
            for part in args.disks.split(";"):
                x, y, r = (float(t) for t in part.split(","))
                disks.append((complex(x, y), r))
        except ValueError:
            raise UsageError(f"bad disks {args.disks!r}: need x,y,r;x,y,r;...") from None
        s = PlanarSet(tuple(disks))
        tau = fatness_estimate(s, n_radii=args.n_radii, seed=args.seed)
        pairs = len(fatness_pairs(s, n_radii=args.n_radii, seed=args.seed)[1])
        _write(
            args.output,
            _json_report({"tau_hat": tau, "seed": args.seed, "pairs": pairs}),
        )
    else:
        raise UsageError(f"unknown analysis {kind!r}")
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
        tri = triangular_ball(8, 3)
        packed = pack_disk(tri, boundary=EUCLIDEAN)
        Path(args.svg).write_text(packing_to_svg(packed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="speiserlab",
        description="Speiser-graph constructions, extremal length, circle "
        "packings and recurrence tests.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate or transform graphs")
    gen.add_argument(
        "kind",
        choices=["octagonal", "gamma", "lambda", "extend", "subdivide4", "dual"],
    )
    gen.add_argument("--depth", type=int, default=2, help="ball radius")
    gen.add_argument(
        "--schedule", default="21,8103", help="comma-separated odd tree lengths"
    )
    gen.add_argument("--graph", help="input graph JSON (for transforms)")
    gen.add_argument("--grid-depth", type=int, default=4)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    an = sub.add_parser("analyze", help="run an estimator on a graph")
    an.add_argument(
        "kind",
        choices=[
            "vel",
            "resistance",
            "nash-williams",
            "doyle",
            "ratio-trend",
            "fatness",
        ],
    )
    an.add_argument("--graph", help="input graph JSON")
    an.add_argument("--root", type=int, default=0)
    an.add_argument("--n-max", type=int, default=6)
    an.add_argument("--grid-depth", type=int, default=8)
    an.add_argument("--annuli", default="1:2,2:4,3:6")
    an.add_argument("--family", default="hex", choices=["hex", "tri8"])
    an.add_argument("--ns", default="2,3,4,5", help="ratio-trend ball radii")
    an.add_argument("--disks", default="0,0,1", help="fatness x,y,r;x,y,r;...")
    an.add_argument("--n-radii", type=int, default=8)
    an.add_argument("--seed", type=int, default=DEFAULT_SEED)
    an.add_argument("-o", "--output", default=None)
    an.set_defaults(func=_cmd_analyze)

    th = sub.add_parser("theorem1", help="full two-leg evidence run")
    th.add_argument("--config", default="default", help="'default' or a JSON file")
    th.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="recorded in the report only: the run is deterministic and uses no seed",
    )
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
