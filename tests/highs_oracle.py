"""HiGHS oracles for multi-marginal and two-marginal transport, for the tests.

:func:`brute_force_multimarginal` assembles the full
(sum_j n_j x prod_j n_j) LP entry by entry, takes every tuple's cost and
point from one :func:`otbary.frechet_means` pass over the product, and
hands the LP to ``scipy.optimize.linprog``: no LP code, cost tensor or
constraint structure is shared with :func:`otbary.solve_multimarginal`.
:func:`highs_transport` does the same for a given cost matrix, with every
row of both marginals, for :func:`otbary.solve_transport`.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from otbary.errors import InfeasibleWeights, ProductSizeExceeded
from otbary.measures import MeasureEnsemble
from otbary.frechet import frechet_means
from otbary.multimarginal import _index_grid
from otbary.spaces import Space
from otbary.staircase import MASS_CUT, Coupling

BRUTE_FORCE_CAP = 10**4
# HiGHS's default feasibility tolerances (1e-7) let its objective sit above
# the optimum by more than the tests' 1e-12 relative bound: 2.3e-9 on one
# 6 x 4 x 6 ensemble at p = 1, where the dense simplex and HiGHS at these
# tolerances agree to the last bit.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def brute_force_multimarginal(space: Space, p: float, ens: MeasureEnsemble) -> Coupling:
    """Optimal coupling of the multi-marginal LP, solved by HiGHS."""
    measures = ens.measures
    shape = tuple(m.n_atoms for m in measures)
    if np.prod([float(n) for n in shape]) > BRUTE_FORCE_CAP:
        raise ProductSizeExceeded(
            f"product support {shape} exceeds brute-force cap {BRUTE_FORCE_CAP}"
        )
    tuples = list(np.ndindex(*shape))
    points, costs, _ = frechet_means(
        space, p, ens.lam, [m.atoms for m in measures], _index_grid(shape)
    )
    rows = sum(shape)
    A_eq = np.zeros((rows, len(tuples)))
    b_eq = []
    r = 0
    for j, m in enumerate(measures):
        for i in range(m.n_atoms):
            for k, tup in enumerate(tuples):
                if tup[j] == i:
                    A_eq[r, k] = 1.0
            b_eq.append(m.weights[i])
            r += 1
    res = scipy.optimize.linprog(
        costs, A_eq=A_eq, b_eq=np.asarray(b_eq), method="highs",
        options=HIGHS_OPTIONS,
    )
    if not res.success:
        raise InfeasibleWeights(f"oracle LP failed: {res.message}")
    keep = np.flatnonzero(res.x > MASS_CUT)
    return Coupling(
        index=np.array(tuples, dtype=np.intp)[keep], mass=res.x[keep], shape=shape,
        objective=float(res.fun), points=points[keep],
    )


def highs_transport(cost, a, b) -> float:
    """Optimal value of the two-marginal transportation LP, solved by HiGHS."""
    C = np.asarray(cost, dtype=float)
    n, m = C.shape
    A_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    res = scipy.optimize.linprog(
        C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), method="highs",
        options=HIGHS_OPTIONS,
    )
    if not res.success:
        raise InfeasibleWeights(f"oracle LP failed: {res.message}")
    return float(res.fun)
