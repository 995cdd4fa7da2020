"""Sparse LU factorizations that share one fill-reducing order.

Both sparse solvers of the lab factor a family of matrices with a symmetric
sparsity pattern: ``walk`` the nested Laplacian minors of one ball, one per
radius, and ``vel`` one Schur complement per interior-point iteration, on a
pattern fixed per solve.  Such a family needs one fill-reducing order.  Its
first member, the largest, is factored in a minimum-degree order of the
pattern of A^T + A, and the order SuperLU eliminated it in is kept.  Every
later member is permuted into that order, restricted to its own rows, and
factored in its natural order.  A restricted elimination order never fills
more than the first factor does on those rows (Rose, Tarjan and Lueker,
*Algorithmic aspects of vertex elimination on graphs*, SIAM J. Comput. 1976),
and SuperLU no longer orders each member afresh.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

# SuperLU's supernode relaxation and panel width, fixed for these systems,
# which have a few nonzeros per column.  Timed on a 2-core x86 machine with
# the same fill: the radius-60 Doyle minor of the default Gamma (15,915 rows,
# 366,160 factor nonzeros) factors in 19-23 ms, against 40-45 ms at SuperLU's
# defaults in the same order; the Schur complement of VEL annulus (3, 6) on
# the leg-A ball (2,241 rows) in 2.3 ms against 2.8 ms.  SuperLU needs
# relax <= panel_size.
RELAX = 1
PANEL_SIZE = 1


def factor(mat: csc_matrix, order: np.ndarray | None = None):
    """Sparse LU of the square ``mat`` and the family's elimination order.

    Without ``order``, ``mat`` is a family's first member: SuperLU orders its
    columns by minimum degree on the pattern of A^T + A, and the returned
    order lists the columns of ``mat`` as they were eliminated.  With the
    ``order`` an earlier call returned, ``mat`` is a later member that the
    caller has already permuted into it; it is factored as it stands, and
    ``order`` is returned unchanged.
    """
    lu = splu(
        mat,
        permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
        relax=RELAX,
        panel_size=PANEL_SIZE,
    )
    return lu, np.argsort(lu.perm_c) if order is None else order

