"""End-to-end slow-growth construction experiment.

Builds the 3-regular octagon-faced base graph, stretches its cut edges by an
odd-length schedule, and collects desk-scale numerical evidence for the two
legs of the construction: the dual triangulation side should look
transient/hyperbolic, while the extended graph over the stretched base should
look recurrent, with the ball and sphere growth bounds checked from exact
counts.  All verdicts are trends over truncations, not proofs; the report
says so explicitly and is byte-deterministic for a fixed config.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .errors import FrontierError, ScheduleError
from .graph_core import RotationGraph, bfs_layers, classify, induced_ball
from .lattices import triangular_ball
from .speiser import (
    GrowthSchedule,
    extended_layer_counts,
    speiser_ball,
    tree_replace,
)
from .packing import ratio_trend
from .trend import classify_resistance_curve, first_converged_n
from .vel import check_annuli, vel_type_trend
from .walk import (
    check_doyle_depth,
    check_radii,
    doyle_test,
    nash_williams_sum,
    resistance_curve,
)


def paper_schedule(n: int) -> int:
    """Smallest odd integer at least exp(3^(n+1)).

    Only n <= 2 is representable at desk scale (the next term has more than
    thirty decimal digits).
    """
    if n < 0:
        raise ScheduleError("n must be >= 0")
    if n >= 3:
        raise ScheduleError(
            f"l_{n} = exp(3^{n + 1}) is astronomically large; desk scale stops at n = 2"
        )
    x = math.exp(3.0 ** (n + 1))
    k = math.ceil(x)
    if k % 2 == 0:
        k += 1
    return k


def build_gamma(depth: int, schedule: GrowthSchedule) -> RotationGraph:
    """Octagon base ball B(depth) with every cut layer stretched by the schedule."""
    if depth > len(schedule):
        raise ScheduleError(
            f"depth {depth} exceeds schedule coverage {len(schedule)}"
        )
    gamma = tree_replace(speiser_ball(depth), schedule)
    cls = classify(gamma)
    if not cls.is_bipartite or cls.homogeneous_degree != 3:
        raise ScheduleError("stretched graph lost the Speiser property")
    return gamma


def first_k_holding(ok: list[bool], k_min: int) -> int | None:
    """Smallest k_min + i with ok[i:] all true, or None if ok[-1] fails.

    ``ok[i]`` is the check at k = k_min + i; an empty list gives None.
    """
    i = len(ok)
    while i > 0 and ok[i - 1]:
        i -= 1
    return k_min + i if i < len(ok) else None


# the least k_min of each bound check: the growth bound k ln k is defined
# from k = 1, the sphere bound 4 k ln k and the square fit need ln k > 0
_LEAST_K = {"growth": 1, "upsilon": 2}


def _check_k_range(name: str, k_min: int, k_max: int) -> None:
    """The ``name`` bound's k range must start at its least k and be nonempty."""
    least = _LEAST_K[name]
    if not least <= k_min <= k_max:
        raise FrontierError(
            f"need {least} <= {name}_k_min <= {name}_k_max: {k_min}, {k_max}"
        )


def _clip_range(name: str, k_min: int, k_max: int, reliable_depth: int) -> int:
    """``k_max`` clipped to the reliable depth, after ``_check_k_range``; an
    empty range checks nothing."""
    _check_k_range(name, k_min, k_max)
    if min(k_max, reliable_depth) < k_min:
        raise FrontierError(
            f"{name} range [{k_min}, {k_max}] is empty inside the reliable "
            f"depth {reliable_depth}"
        )
    return min(k_max, reliable_depth)


@dataclass
class GrowthCheck:
    k_min: int
    k_max: int
    holds_all: bool
    first_k_holding: int | None
    n_failing: int
    failing_k_head: list[int]  # the first ten failing k

    def to_dict(self) -> dict:
        return asdict(self)


def verify_growth(gamma: RotationGraph, k_min: int, k_max: int) -> GrowthCheck:
    """Exact |B(k)| around vertex 0 against k * ln(k) over [k_min, k_max]
    (natural log); needs 1 <= k_min <= k_max."""
    layers = bfs_layers(gamma, 0)
    k_hi = _clip_range("growth", k_min, k_max, layers.reliable_depth)
    balls = layers.ball_sizes()
    ok = [balls[k] <= k * math.log(k) for k in range(k_min, k_hi + 1)]
    failing = [k_min + i for i, o in enumerate(ok) if not o]
    return GrowthCheck(
        k_min=k_min,
        k_max=k_hi,
        holds_all=not failing,
        first_k_holding=first_k_holding(ok, k_min),
        n_failing=len(failing),
        failing_k_head=failing[:10],
    )


@dataclass
class UpsilonCheck:
    k_min: int
    k_max: int
    sphere_holds_all: bool
    sphere_first_k_holding: int | None
    ball_constant: float  # fitted C in |B(k)| <= C k^2 ln k
    cut_sizes: list[int]  # exact |E(k)| of the extension, k < k_max

    def to_dict(self) -> dict:
        return {
            "k_min": self.k_min,
            "k_max": self.k_max,
            "sphere_holds_all": self.sphere_holds_all,
            "sphere_first_k_holding": self.sphere_first_k_holding,
            "ball_constant": self.ball_constant,
        }


def verify_upsilon_bounds(
    gamma: RotationGraph, k_max: int, k_min: int = 2
) -> UpsilonCheck:
    """|S(k)| of the extension around vertex 0 against 4 k ln k, plus the
    fitted square constant; needs 2 <= k_min <= k_max.

    The grids are unbounded: the layers are those of the true extended graph.
    """
    reliable = bfs_layers(gamma, 0).reliable_depth
    k_hi = _clip_range("upsilon", k_min, k_max, reliable)
    counts = extended_layer_counts(gamma, 0, k_hi)
    sizes = counts.sphere_sizes[k_min : k_hi + 1]
    ok = [s <= 4 * k * math.log(k) for k, s in enumerate(sizes, k_min)]
    c_fit = max(
        counts.ball_sizes[k] / (k * k * math.log(k))
        for k in range(2, k_hi + 1)
    )
    return UpsilonCheck(
        k_min=k_min,
        k_max=k_hi,
        sphere_holds_all=all(ok),
        sphere_first_k_holding=first_k_holding(ok, k_min),
        ball_constant=c_fit,
        cut_sizes=counts.cut_sizes,
    )


@dataclass(frozen=True)
class Theorem1Config:
    """Parameters of the default ``theorem1`` run, checked when built.

    Lists (as JSON gives them) become tuples.  A string where a list
    belongs, an annulus that is not a pair, a float or bool anywhere, a bad
    schedule, k range or Doyle depth, and a leg-A radius or annulus that
    breaks ``check_radii`` or ``check_annuli`` (the rules of
    ``resistance_curve`` and ``vel_type_trend``) raises here, before any
    graph is built.  No field bounds a radius from above.
    ``seed`` is inert: every stage of ``run_theorem1`` is deterministic and
    none reads it.  It is kept so that the report records it and config
    files that set it stay valid.
    """

    schedule: tuple[int, ...] = (21, 8103)
    growth_k_min: int = 25
    growth_k_max: int = 8000
    upsilon_k_min: int = 25
    upsilon_k_max: int = 2000
    resistance_radii: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    vel_annuli: tuple[tuple[int, int], ...] = ((1, 2), (2, 4), (3, 6))
    ratio_ns: tuple[int, ...] = (2, 3, 4, 5, 6)
    doyle_n_max: int = 24
    doyle_grid_depth: int = 24
    seed: int = 20080

    def __post_init__(self):
        lists = ("schedule", "resistance_radii", "ratio_ns", "vel_annuli")
        strings = [name for name in lists if isinstance(getattr(self, name), str)]
        if not strings and any(isinstance(a, str) for a in self.vel_annuli):
            strings = ["vel_annuli"]
        if strings:
            raise TypeError(f"config values must be lists, not strings: {strings}")
        for name in ("schedule", "resistance_radii", "ratio_ns"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "vel_annuli", tuple(map(tuple, self.vel_annuli)))
        not_pairs = [a for a in self.vel_annuli if len(a) != 2]
        if not_pairs:
            raise TypeError(f"vel_annuli entries must be pairs: {not_pairs}")
        values = asdict(self) | {"vel_annuli": sum(self.vel_annuli, ())}
        bad = [
            (name, x)
            for name, v in values.items()
            for x in (v if isinstance(v, tuple) else (v,))
            if isinstance(x, bool) or not isinstance(x, int)
        ]
        if bad:
            raise TypeError(f"config values must be integers: {bad}")
        GrowthSchedule(self.schedule)
        check_radii(self.resistance_radii + self.ratio_ns)
        check_annuli(self.vel_annuli)
        for name in _LEAST_K:
            lo, hi = getattr(self, f"{name}_k_min"), getattr(self, f"{name}_k_max")
            _check_k_range(name, lo, hi)
        check_doyle_depth(self.doyle_n_max, self.doyle_grid_depth)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Theorem1Report:
    config: Theorem1Config
    leg_a: dict
    leg_b: dict
    verdicts: dict
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _bound_verdict(holds_all: bool, first_k_holding: int | None) -> str:
    """A bound checked over a k range: it holds, holds from some k on, or fails."""
    if holds_all:
        return "holds"
    return f"holds from k = {first_k_holding}" if first_k_holding else "fails"


def _leg_a(config: Theorem1Config) -> tuple[dict, dict]:
    """Leg A, the dual side, which should look transient / hyperbolic: its
    report section and verdicts.

    Its {3,8} lattice is built only as deep as leg A reads it: to the
    largest resistance radius, annulus outer radius or ``ratio_ns`` entry.
    Resistance and VEL read the lattice itself, and each cp ball is cut
    from it: ``triangular_ball`` numbers vertices and edges ring by ring, so
    every ball read here has the same ids in any deeper lattice.  The
    lattice is freed on return, so leg B's construction does not stack on
    it."""
    outer = [no for _, no in config.vel_annuli]
    lattice = triangular_ball(
        8, max([*config.resistance_radii, *outer, *config.ratio_ns], default=1)
    )
    curve = resistance_curve(lattice, 0, list(config.resistance_radii))
    res_fit = classify_resistance_curve(curve.radii, curve.resistance)
    vel_report = vel_type_trend(lattice, 0, list(config.vel_annuli))
    cp_report = ratio_trend(lambda n: induced_ball(lattice, n), list(config.ratio_ns))
    leg_a = {
        "resistance": curve.to_dict(),
        "resistance_fit": res_fit,
        "resistance_first_converged": first_converged_n(
            curve.radii, curve.resistance
        ),
        "vel_trend": vel_report.to_dict(),
        "ratio_trend": cp_report.to_dict(),
    }
    verdicts = {
        "leg_a_resistance": res_fit["verdict"],
        "leg_a_vel": vel_report.verdict,
        "leg_a_cp": cp_report.verdict,
    }
    return leg_a, verdicts


def run_theorem1(config: Theorem1Config | None = None) -> Theorem1Report:
    """Run both evidence legs and assemble the deterministic report."""
    config = config or Theorem1Config()
    notes = [
        "verdicts are truncation trends, not proofs",
        "leg A runs on the degree-8 triangulation (the dual of the octagon "
        "base graph contains it); leg B runs on the stretched base and its "
        "grid extension",
    ]

    leg_a, leg_a_verdicts = _leg_a(config)

    # leg B: growth bounds and recurrence evidence on the stretched base
    schedule = GrowthSchedule(config.schedule)
    gamma = build_gamma(len(schedule), schedule)
    growth = verify_growth(gamma, config.growth_k_min, config.growth_k_max)
    upsilon = verify_upsilon_bounds(
        gamma, config.upsilon_k_max, k_min=config.upsilon_k_min
    )
    nw = nash_williams_sum(upsilon.cut_sizes)
    doyle = doyle_test(
        gamma,
        grid_depth=config.doyle_grid_depth,
        root=0,
        n_max=config.doyle_n_max,
    )
    leg_b = {
        "schedule": list(config.schedule),
        "gamma_vertices": gamma.n_vertices,
        "growth": growth.to_dict(),
        "upsilon": upsilon.to_dict(),
        "nash_williams_tail": nw[-5:],
        "doyle": doyle.to_dict(),
        "gamma_interior_max_degree": classify(gamma).max_degree,
    }

    verdicts = {
        **leg_a_verdicts,
        "leg_b_doyle": doyle.verdict,
        "leg_b_growth_bound": _bound_verdict(growth.holds_all, growth.first_k_holding),
        "leg_b_sphere_bound": _bound_verdict(
            upsilon.sphere_holds_all, upsilon.sphere_first_k_holding
        ),
    }
    if any(v == "inconclusive" for v in verdicts.values()):
        notes.append("at least one leg is inconclusive")
    return Theorem1Report(
        config=config, leg_a=leg_a, leg_b=leg_b, verdicts=verdicts, notes=notes
    )
