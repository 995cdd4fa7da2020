"""The benchmark's workloads and the checks on every operation's output.

Each workload is a closed loop with one caller: an operation starts when the
previous one returns.  Every operation's output is reduced to an observation
dict and compared with ``reference.json`` (recorded from the same calls):

* ints, bools, strings and lists of them must match exactly;
* floats match within ``REL_TOL`` (resistances, rho values, radii);
* a ``{"lower", "upper"}`` VEL bracket must have lower <= upper and overlap
  the reference bracket, so a solver that converges further still passes.

Invariants that do not need a reference (packing angle residual under
``ANGLE_TOL``, a separation check that actually ran) are checked directly.
An operation fails when it raises, exits non-zero or fails a check.

The library is always reached through module attributes (``packing.pack_disk``)
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from time import perf_counter

from speiserlab import (
    cli,
    fatness,
    graph_core,
    lattices,
    packing,
    refinement,
    speiser,
    theorem1,
    walk,
)

REL_TOL = 1e-6
TANGENCY_TOL = 1e-6
SEPARATION_TOL = 1e-9

GAMMA_DEPTH = 2
GAMMA_SCHEDULE = (21, 8103)
HEX_NS = (4, 8, 12, 16, 20, 24)
TRI8_NS = (2, 3, 4, 5, 6, 7)


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def _floats(xs) -> list[float]:
    return [float(x) for x in xs]


def _compare(key: str, got, want, out: list[str]) -> None:
    if isinstance(want, dict) and set(want) == {"lower", "upper"}:
        lo, up = got["lower"], got["upper"]
        if not lo <= up:
            out.append(f"{key}: lower {lo} > upper {up}")
        elif lo > want["upper"] * (1 + REL_TOL) or up < want["lower"] * (1 - REL_TOL):
            out.append(f"{key}: bracket [{lo}, {up}] misses reference {want}")
    elif isinstance(want, float):
        if not (isinstance(got, float) and abs(got - want) <= REL_TOL * max(abs(want), 1e-12)):
            out.append(f"{key}: {got!r} != {want!r} within {REL_TOL}")
    elif isinstance(want, list) and want and isinstance(want[0], (float, dict)):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{key}: {got!r} does not match {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(f"{key}[{i}]", g, w, out)
    elif got != want:
        out.append(f"{key}: {got!r} != {want!r}")


def compare(observed: dict, reference: dict) -> list[str]:
    """Mismatches between one operation's observation and its reference."""
    out: list[str] = []
    if set(observed) != set(reference):
        out.append(f"keys {sorted(observed)} != reference keys {sorted(reference)}")
    for key in sorted(set(observed) & set(reference)):
        _compare(key, observed[key], reference[key], out)
    return out


class Pass:
    """One pass over a workload's operations: timing, checks and failures.

    ``reference`` of None records observations instead of checking them.
    """

    def __init__(self, workload: str, seed: int, out_dir: Path, reference, tracer=None):
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.reference = reference
        self.tracer = tracer
        self.wall_s = 0.0
        self.op_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict = {}
        self.unconverged = 0
        self.report_sha256 = None

    def op(self, name: str, call, observe):
        """Time ``call()``, then check ``observe(result)``; returns the result."""
        self.attempted += 1
        problems = []
        result = None
        try:
            t0 = perf_counter()
            if self.tracer is None:
                result = call()
            else:
                with self.tracer.op(name):
                    result = call()
            self.op_s[name] = perf_counter() - t0
            self.wall_s += self.op_s[name]
        except Exception as exc:  # any library error is a failed operation
            problems.append(f"raised {type(exc).__name__}: {exc}")
        else:
            try:
                obs = observe(result)
            except CheckFailed as exc:
                problems.append(str(exc))
            else:
                self.observed[name] = obs
                if self.reference is not None:
                    problems += compare(obs, self.reference.get(name, {}))
        if problems:
            self.failed += 1
            self.failures += [f"{name}: {m}" for m in problems]
        return result


# -- theorem1-default ---------------------------------------------------------


def _theorem1_observe(p: Pass, path: Path) -> dict:
    raw = path.read_bytes()
    path.unlink()
    p.report_sha256 = hashlib.sha256(raw).hexdigest()
    rep = json.loads(raw)
    a, b = rep["leg_a"], rep["leg_b"]
    annuli = a["vel_trend"]["per_annulus"]
    p.unconverged = sum(not e["converged"] for e in annuli)
    return {
        "verdicts": rep["verdicts"],
        "resistance_radii": a["resistance"]["radii"],
        "resistance": _floats(a["resistance"]["resistance"]),
        "vel_annuli": a["vel_trend"]["annuli"],
        "vel_skipped": a["vel_trend"]["skipped"],
        "vel_brackets": [{"lower": e["lower"], "upper": e["upper"]} for e in annuli],
        "rho_radii": a["ratio_trend"]["radii_list"],
        "rho": _floats(a["ratio_trend"]["rho"]),
        "gamma_vertices": b["gamma_vertices"],
        "gamma_interior_max_degree": b["gamma_interior_max_degree"],
        "growth": {k: b["growth"][k] for k in ("k_min", "k_max", "holds_all", "first_k_holding", "n_failing")},
        "sphere_first_k_holding": b["upsilon"]["sphere_first_k_holding"],
        "sphere_k_max": b["upsilon"]["k_max"],
        "ball_constant": float(b["upsilon"]["ball_constant"]),
        "nash_williams_tail": _floats(b["nash_williams_tail"]),
        "doyle_radii": b["doyle"]["radii"],
        "doyle_cut_sizes": b["doyle"]["cut_sizes"],
        "doyle_resistance": _floats(b["doyle"]["resistance"]),
        "doyle_first_converged": b["doyle"]["first_converged"],
    }


def theorem1_default(p: Pass) -> None:
    """The default ``speiserlab theorem1`` run, in-process through the CLI."""
    out = p.out_dir / "theorem1.json"

    def run():
        rc = cli.main(["theorem1", "--seed", str(p.seed), "-o", str(out)])
        if rc != 0:
            raise RuntimeError(f"speiserlab theorem1 exited with {rc}")

    p.op("theorem1", run, lambda _: _theorem1_observe(p, out))


# -- construct-gamma ----------------------------------------------------------


def _graph_counts(g, faces: bool = True) -> dict:
    # tracing faces caches them on ``g``: only count them on a graph that no
    # later operation uses
    out = {"vertices": g.n_vertices, "edges": g.n_edges, "frontier": len(g.frontier)}
    if faces:
        out["faces"] = len(graph_core.trace_faces(g))
    return out


def _layers_observe(layers) -> dict:
    return {
        "depth": layers.depth,
        "reliable_depth": layers.reliable_depth,
        "ball_size": layers.ball_sizes()[-1],
        "sphere_sizes_sha256": _digest(layers.sphere_sizes()),
        "cut_sizes_sha256": _digest(layers.cut_sizes()),
    }


def _refinement_observe(result) -> dict:
    sub, rep = result
    require(not rep.violations, f"refinement violations: {rep.violations[:3]}")
    return {
        **_graph_counts(sub),
        "is_refinement": rep.is_refinement,
        "m_edge": rep.m_edge,
        "m_face": rep.m_face,
    }


def _doyle_observe(rep) -> dict:
    return {
        "flags": rep.flags,
        "radii": rep.radii,
        "cut_sizes": rep.cut_sizes,
        "resistance": _floats(rep.resistance),
        "first_converged": rep.first_converged,
        "verdict": rep.verdict,
    }


def construct_gamma(p: Pass) -> None:
    """Build Γ and run the face-walk rewrites over it, without VEL."""

    def subdivide_and_check():
        ball = lattices.triangular_ball(8, 6)
        sub, rmap = refinement.subdivide4(ball)
        return sub, refinement.check_refinement(ball, sub, rmap)

    def round_trip():
        text = graph_core.to_json(gamma)
        return text, graph_core.build_graph(text)

    def round_trip_observe(result):
        text, back = result
        return {
            "gamma_faces": len(graph_core.trace_faces(back)),
            "json_sha256": hashlib.sha256(text.encode()).hexdigest()[:16],
            "identical": (back.rotations, back.frontier, back.tags)
            == (gamma.rotations, gamma.frontier, gamma.tags),
        }

    gamma = p.op(
        "build_gamma",
        lambda: theorem1.build_gamma(GAMMA_DEPTH, speiser.GrowthSchedule(GAMMA_SCHEDULE)),
        lambda g: _graph_counts(g, faces=False),
    )
    p.op("bfs_layers", lambda: graph_core.bfs_layers(gamma, 0), _layers_observe)
    p.op(
        "classify",
        lambda: graph_core.classify(gamma),
        lambda c: {
            "is_bipartite": c.is_bipartite,
            "homogeneous_degree": c.homogeneous_degree,
            "is_disk_triangulation": c.is_disk_triangulation,
            "max_degree": c.max_degree,
            "p_of": c.p_of,
        },
    )
    p.op("lambda_triangulation", lambda: speiser.lambda_triangulation(gamma), _graph_counts)
    p.op("extend_speiser", lambda: speiser.extend_speiser(gamma, 2), _graph_counts)
    p.op("subdivide4", subdivide_and_check, _refinement_observe)
    p.op("dual", lambda: graph_core.dual(lattices.triangular_ball(8, 7)), _graph_counts)
    p.op("json_round_trip", round_trip, round_trip_observe)
    p.op("doyle_test", lambda: walk.doyle_test(gamma, 24, 0, 60), _doyle_observe)


# -- packing-fat --------------------------------------------------------------


def _trend_observe(rep) -> dict:
    return {"radii": rep.radii_list, "rho": _floats(rep.rho), "verdict": rep.verdict}


def _packing_observe(result) -> dict:
    p, check = result
    resid = p.diagnostics["angle_residual"]
    require(resid < packing.ANGLE_TOL, f"angle residual {resid} >= ANGLE_TOL")
    require(
        check.max_angle_residual < packing.ANGLE_TOL,
        f"verified angle residual {check.max_angle_residual} >= ANGLE_TOL",
    )
    require(
        check.max_tangency_error < TANGENCY_TOL,
        f"tangency error {check.max_tangency_error} >= {TANGENCY_TOL}",
    )
    # inf means the pair check was skipped (too many pairs): not verified
    require(
        math.isfinite(check.min_separation_margin),
        "separation check skipped (min_separation_margin = inf)",
    )
    require(
        check.min_separation_margin > -SEPARATION_TOL,
        f"circles overlap by {-check.min_separation_margin}",
    )
    return {
        "vertices": p.graph.n_vertices,
        "interior": len(p.interior),
        "root_radius": float(p.radii[0]),
    }


def _hs_observe(result) -> dict:
    col, rep = result
    require(rep.max_overlap <= rep.overlap_bound, f"overlap {rep.max_overlap} > {rep.overlap_bound}")
    # the union-lemma tolerance of fatness.check_union_fat
    require(
        rep.worst_fatness >= rep.claimed_tau - 0.01,
        f"worst fatness {rep.worst_fatness} < {rep.claimed_tau} - 0.01",
    )
    return {
        "sets": len(col.sets),
        "adjacency": len(col.adjacency),
        "adjacency_ok": rep.adjacency_ok,
        "missing_adjacencies": len(rep.missing_adjacencies),
        "locally_finite": rep.locally_finite,
        "all_pass": rep.all_pass(),
    }


def packing_fat(p: Pass) -> None:
    """Hyperbolic and euclidean packing labels, layout, verification, fat sets."""

    def packed(q, depth, boundary):
        pk = packing.pack_disk(lattices.triangular_ball(q, depth), boundary=boundary)
        return pk, packing.verify_packing(pk)

    def fat_collection():
        pk = packing.pack_disk(lattices.triangular_ball(6, 3), boundary=packing.EUCLIDEAN)
        col = packing.inscribed_collection(pk)
        return col, fatness.check_hs(None, col, seed=p.seed)

    p.op(
        "ratio_trend_hex",
        lambda: packing.ratio_trend(lambda n: lattices.triangular_ball(6, n), list(HEX_NS)),
        _trend_observe,
    )
    p.op(
        "ratio_trend_tri8",
        lambda: packing.ratio_trend(lambda n: lattices.triangular_ball(8, n), list(TRI8_NS)),
        _trend_observe,
    )
    p.op("pack_maximal_hex16", lambda: packed(6, 16, packing.MAXIMAL), _packing_observe)
    p.op("pack_euclidean_tri8_4", lambda: packed(8, 4, packing.EUCLIDEAN), _packing_observe)
    p.op("check_hs_hex3", fat_collection, _hs_observe)


WORKLOADS = {
    "theorem1-default": theorem1_default,
    "construct-gamma": construct_gamma,
    "packing-fat": packing_fat,
}
