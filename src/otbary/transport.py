"""Exact optimal transport between two discrete measures.

:func:`wasserstein` has two routes.  On the line (``Euclidean(1)``, any
p >= 1) the cost |x - y|^p of sorted atoms is a Monge matrix, so the
north-west-corner coupling is optimal with no pivot (Hoffman 1963).  It is
read off the common refinement of the two cumulative weights
(:mod:`otbary.staircase`, shared with the multi-marginal line route); the
cost is summed over its at most n + m - 1 cells and the duals follow along
the staircase basis in O(n + m), so no n x m cost matrix is built.  Every
other space builds the cost matrix and runs :func:`solve_transport`.
The line is :func:`otbary.spaces.is_line`.  Both routes check their plan's
marginals against the weights within ``staircase.MARGINAL_TOL``.

:func:`solve_transport` is the J = 2 case of the one coupling LP,
:func:`otbary.staircase.coupling_simplex`, whose setup the multi-marginal
tensor simplex runs for J >= 3, on the pivot loop of
:mod:`otbary.pivoting`.  It returns a basic optimal plan with duals u, v
(u_0 = 0) whose reduced costs are certified nonnegative at 1e-9.

:func:`wasserstein_1d` is the independent one-dimensional oracle: it
integrates the quantile-function gap over the common refinement of cumulative
weight breakpoints and is exact for discrete inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleWeights, UnsupportedSpace
from .measures import DiscreteMeasure
from .pivoting import check_rows
from .spaces import Space, check_order, is_line, pairwise_distances
from .staircase import _entries, _path, _refinement, check_marginals, coupling_simplex

FEASIBILITY_TOL = 1e-9


@dataclass
class TransportPlan:
    """Basic optimal coupling between two weight vectors, with duals ``u``,
    ``v`` (u_i + v_j = cost_ij on the basis) and the simplex's pivot count
    (0 on the line, where the start is optimal)."""

    plan: np.ndarray
    cost: float
    u: np.ndarray
    v: np.ndarray
    pivots: int = 0

    @property
    def support(self) -> list[tuple[int, int, float]]:
        ii, jj = np.nonzero(self.plan)
        return [(int(i), int(j), float(self.plan[i, j])) for i, j in zip(ii, jj)]


def solve_transport(cost, w_src, w_tgt) -> TransportPlan:
    """Solve the transportation LP min <cost, pi> with fixed marginals.

    The LP is :func:`otbary.staircase.coupling_simplex` on the two weight
    vectors: the source rows and all but the last target row (that row is
    implied by the others), n + m - 1 rows and one variable per cell, in C
    order, from the north-west-corner basis.  The marginal totals need not
    be 1; the target weights are scaled to the source total.  The plan
    holds the loop's levels, round-off already 0, and the duals are shifted
    so that u_0 = 0.  With one source or one target the plan is forced and
    no LP is run.

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
        plan = b[None, :] if n == 1 else a[:, None]
        u, v, pivots = C[:, 0] - C[0, 0], C[0].copy(), 0
    else:
        check_rows(n + m - 1, n * m)
        basis, x, pivots, _, y = coupling_simplex(C, [a, b])
        plan = np.zeros((n, m))
        plan.reshape(-1)[basis] = x
        u, v = y[:n] - y[0], y[n:] + y[0]
    check_marginals([plan.sum(axis=1), plan.sum(axis=0)], [a, b], "transport plan")
    return TransportPlan(plan=plan, cost=float((plan * C).sum()), u=u, v=v, pivots=pivots)


def _line_transport(p: float, mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
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
    # The plan's marginals, summed over its cells alone: O(n + m).
    marginals = [np.bincount(idx[:, k], mass, n) for k, n in enumerate((mu.n_atoms, nu.n_atoms))]
    check_marginals(marginals, [mu.weights, nu.weights], "transport plan")
    plan = np.zeros((mu.n_atoms, nu.n_atoms))
    plan[idx[:, 0], idx[:, 1]] = mass
    cost = float(mass @ (np.abs(x[idx[:, 0]] - y[idx[:, 1]]) ** p))
    return TransportPlan(plan=plan, cost=cost, u=u, v=v)


def wasserstein(
    space: Space,
    p: float,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
) -> tuple[float, TransportPlan]:
    """W_p distance and an optimal plan between two measures on ``space``.

    The plan is indexed by the measures' own atoms.  On the line the plan is
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
    return max(result.cost, 0.0) ** (1.0 / p), result


def wasserstein_1d(p: float, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form W_p on the line via quantile functions; exact for
    discrete inputs.  Independent of the LP path."""
    if not is_line(mu.space):
        raise UnsupportedSpace("wasserstein_1d requires Euclidean dimension 1")
    if nu.space != mu.space:
        raise DimensionMismatch("measures live on different spaces")
    check_order(p)
    xa = mu.atoms[:, 0]
    xb = nu.atoms[:, 0]
    ca = np.cumsum(mu.weights)
    cb = np.cumsum(nu.weights)
    cuts = np.union1d(np.union1d(ca, cb), [0.0, 1.0])
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    lo = cuts[:-1]
    hi = cuts[1:]
    mid = (lo + hi) / 2.0
    qa = xa[np.minimum(np.searchsorted(ca, mid, side="left"), xa.size - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mid, side="left"), xb.size - 1)]
    total = float(np.dot(hi - lo, np.abs(qa - qb) ** p))
    return max(total, 0.0) ** (1.0 / p)
