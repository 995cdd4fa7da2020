"""Small graphs for the tests, made through the two entry points.

``dart_graph`` hands per-vertex dart lists to the constructor.
``edge_list_graph`` first turns per-vertex edge-id lists into dart lists
with ``reference_from_rotations``: an edge's first appearance is dart ``2e``.
``face_cycle_graph`` is the stock lattices' builder, which hands vertex
cycles, the outer face included, to ``from_walks``, each edge keyed by its
two ends.
"""

import numpy as np

from speiserlab.errors import GraphError
from speiserlab.graph_core import RotationGraph
from speiserlab.lattices import _from_vertex_cycles as face_cycle_graph


def dart_graph(rotations, frontier=()):
    """The graph whose vertex ``v`` has the darts ``rotations[v]`` in order."""
    offsets = np.cumsum([0, *map(len, rotations)])
    darts = np.array([d for rot in rotations for d in rot], dtype=np.int64)
    return RotationGraph(darts, offsets, frontier)


def reference_from_rotations(incidence):
    """Per-vertex dart lists from edge-id lists, scanning slot by slot."""
    seen_once = {}
    rotations = []
    for v, inc in enumerate(incidence):
        rot = []
        for e in inc:
            if e in seen_once:
                if seen_once[e] == -1:
                    raise GraphError(f"edge {e} appears more than twice")
                rot.append(2 * e + 1)
                seen_once[e] = -1
            else:
                seen_once[e] = v
                rot.append(2 * e)
        rotations.append(rot)
    unmatched = [e for e, s in seen_once.items() if s != -1]
    if unmatched:
        raise GraphError(f"edges with a single endpoint: {sorted(unmatched)}")
    return rotations


def edge_list_graph(incidence, frontier=()):
    """The graph whose vertex ``v`` has the edges ``incidence[v]`` in order."""
    return dart_graph(reference_from_rotations(incidence), frontier)
