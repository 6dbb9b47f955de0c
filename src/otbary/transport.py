"""Exact optimal transport between two discrete measures.

:func:`wasserstein` has two routes.  On the line (``Euclidean(1)``, any
p >= 1) the cost |x - y|^p of sorted atoms is a Monge matrix, so the
north-west-corner coupling is optimal with no pivot (Hoffman 1963).  It is
read off the common refinement of the two cumulative weights
(:mod:`otbary.staircase`, shared with the multi-marginal line route); the
cost is summed over its at most n + m - 1 cells and the duals follow along
the staircase basis in O(n + m), so no n x m array is built.  Every other
space builds the cost matrix and runs :func:`solve_transport`.  The line
is :func:`otbary.spaces.is_line`.

Both routes return a :class:`otbary.staircase.Coupling`: the plan's
positive-mass cells, in increasing lexicographic order, their masses, the
cost and the duals u, v (u_0 = 0).  Both check its marginals against the
weights within ``staircase.MARGINAL_TOL``, summed over the cells alone.

:func:`solve_transport` is the J = 2 case of the one coupling LP,
:func:`otbary.staircase.coupling_simplex`, whose setup the multi-marginal
tensor simplex runs for J >= 3, on the pivot loop of
:mod:`otbary.pivoting`.  Its plan is a basic optimal one whose reduced
costs are certified nonnegative at 1e-9.  A tiny LP, such as the outer
J_a x J_b one of a line experiment row, costs mostly the fixed numpy calls
of its setup, pivot loop and result, so the plan's cells come out of the
sorted flat basis by one ``divmod``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InfeasibleWeights
from .measures import DiscreteMeasure
from .pivoting import check_rows
from .spaces import Space, check_order, is_line, pairwise_distances
from .staircase import Coupling, _entries, _path, _refinement, check_marginals, coupling_simplex

FEASIBILITY_TOL = 1e-9


def solve_transport(cost, w_src, w_tgt) -> Coupling:
    """Solve the transportation LP min <cost, pi> with fixed marginals.

    The LP is :func:`otbary.staircase.coupling_simplex` on the two weight
    vectors: the source rows and all but the last target row (that row is
    implied by the others), n + m - 1 rows and one variable per cell, in C
    order, from the north-west-corner basis.  The marginal totals need not
    be 1; the target weights are scaled to the source total.  The coupling
    keeps the basic cells of positive level (the loop sets round-off to 0),
    its objective sums the cost over them, and the duals are shifted so
    that u_0 = 0.  With one source or one target the plan is forced and no
    LP is run.

    Raises:
        InfeasibleWeights: marginal totals differ by more than 1e-9.
        ProductSizeExceeded: more than ``pivoting.MAX_ROWS`` rows.
        NumericalFailure: singular basis, no pivot row, or pivot cap hit,
            or the plan's marginals miss the weights.
    """
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2:
        raise DimensionMismatch(f"cost must be a matrix, got shape {C.shape}")
    if not 0.0 <= C.min() <= C.max() < np.inf:  # NaN entries fail here
        raise DimensionMismatch("cost entries must be finite and nonnegative")
    n, m = C.shape
    a = np.asarray(w_src, dtype=float).ravel()
    b = np.asarray(w_tgt, dtype=float).ravel()
    if a.shape[0] != n or b.shape[0] != m:
        raise DimensionMismatch("weight lengths do not match cost shape")
    least = min(a.min(), b.min())
    if least < -1e-15:
        raise InfeasibleWeights("negative marginal weight")
    if least < 0.0:
        a, b = np.maximum(a, 0.0), np.maximum(b, 0.0)
    total_a, total_b = a.sum(), b.sum()
    if not abs(total_a - total_b) <= FEASIBILITY_TOL:  # NaN weights fail here
        raise InfeasibleWeights(f"marginal totals differ: {total_a!r} vs {total_b!r}")
    b = b * (total_a / total_b)
    if n == 1 or m == 1:
        # One source or one target: the plan is forced, and u_i + v_j = C_ij
        # on every cell.
        basis, x = np.arange(n * m), b if n == 1 else a
        u, v, pivots, min_reduced_cost = C[:, 0] - C[0, 0], C[0].copy(), 0, None
    else:
        check_rows(n + m - 1, n * m)
        basis, x, pivots, min_reduced_cost, y = coupling_simplex(C, [a, b])
        order = np.argsort(basis)
        basis, x = basis[order], x[order]
        u, v = y[:n] - y[0], y[n:] + y[0]
    keep = x > 0
    basis, x = basis[keep], x[keep]
    index = np.empty((basis.shape[0], 2), dtype=np.intp)
    np.divmod(basis, m, out=(index[:, 0], index[:, 1]))
    plan = Coupling(
        index=index, mass=x, shape=(n, m),
        objective=float(C.ravel()[basis] @ x), pivots=pivots,
        min_reduced_cost=min_reduced_cost, duals=[u, v],
    )
    check_marginals(plan.marginals(), [a, b], "transport plan")
    return plan


def _line_transport(p: float, mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    # North-west-corner coupling of the sorted atoms and the duals of its
    # staircase basis.  Along the path a row step i -> i + 1 at column j
    # gives u_{i+1} - u_i = c_k - c_{k-1} (c_k the cost of the k-th cell),
    # a column step the same for v; u_0 = 0, as in solve_transport.
    x, y = mu.atoms[:, 0], nu.atoms[:, 0]
    refinement = _refinement([mu.weights, nu.weights])
    idx, mass = _entries(refinement)
    in_row = _path(refinement) < mu.n_atoms  # the start cell and the row steps
    rows = in_row.cumsum() - 1
    c = np.abs(x[rows] - y[np.arange(rows.shape[0]) - rows]) ** p
    gain = np.diff(c)
    row_step = in_row[1:]
    u = np.concatenate([[0.0], np.cumsum(gain[row_step])])
    v = c[0] + np.concatenate([[0.0], np.cumsum(gain[~row_step])])
    plan = Coupling(
        index=idx, mass=mass, shape=(mu.n_atoms, nu.n_atoms),
        objective=float(mass @ (np.abs(x[idx[:, 0]] - y[idx[:, 1]]) ** p)), duals=[u, v],
    )
    check_marginals(plan.marginals(), [mu.weights, nu.weights], "transport plan")
    return plan


def wasserstein(
    space: Space,
    p: float,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
) -> tuple[float, Coupling]:
    """W_p distance and an optimal plan between two measures on ``space``.

    The plan's cells index the measures' own atoms.  On the line the plan is
    the north-west-corner coupling, exact with no solver; elsewhere it comes
    from :func:`solve_transport`.
    """
    if mu.space != space or nu.space != space:
        raise DimensionMismatch("measures do not live on the given space")
    check_order(p)
    if is_line(space):
        result = _line_transport(p, mu, nu)
    else:
        if min(mu.n_atoms, nu.n_atoms) > 1:
            check_rows(mu.n_atoms + nu.n_atoms - 1, mu.n_atoms * nu.n_atoms)
        C = pairwise_distances(space, mu.atoms, nu.atoms) ** p
        result = solve_transport(C, mu.weights, nu.weights)
    return max(result.objective, 0.0) ** (1.0 / p), result

