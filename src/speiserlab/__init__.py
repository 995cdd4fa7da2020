"""speiserlab: combinatorial and numerical tools for the type problem.

Rotation-system planar graphs, Speiser-graph constructions, vertex extremal
length, circle packings, fat-set estimates and random-walk recurrence tests,
plus the end-to-end slow-growth experiment exposed as ``speiserlab theorem1``.
"""

from .errors import (
    FrontierError,
    GeometryError,
    GraphError,
    RefinementError,
    ScheduleError,
    SolverError,
    SpeiserLabError,
)
from .graph_core import (
    LayerDecomposition,
    RotationGraph,
    bfs_layers,
    build_graph,
    canonical_form,
    classify,
    dual,
    euler_characteristic,
    induced_ball,
    is_isomorphic,
    to_json,
    trace_faces,
)
from .refinement import (
    RefinementMap,
    check_metric,
    check_refinement,
    coarsen_metric,
    refine_metric,
    subdivide4,
)
from .speiser import (
    GrowthSchedule,
    build_octagonal_speiser,
    extend_speiser,
    extended_layer_counts,
    lambda_triangulation,
    speiser_ball,
    tree_replace,
)
from .packing import (
    CirclePacking,
    FatCollection,
    inscribed_collection,
    pack_disk,
    packing_to_svg,
    ratio_trend,
)
from .fatness import PlanarSet, check_hs, check_union_fat, fatness_estimate
from .theorem1 import (
    Theorem1Config,
    build_gamma,
    paper_schedule,
    run_theorem1,
    verify_growth,
    verify_upsilon_bounds,
)
from .vel import VelEstimate, metric_objective, solve_vel, vel_type_trend
from .walk import (
    doyle_test,
    nash_williams_sum,
    resistance_curve,
    upsilon_resistance_curve,
)

__version__ = "0.1.0"
