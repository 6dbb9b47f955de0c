"""Barycenters and variance of finitely supported measure ensembles.

Two routes: the exact multi-marginal construction (barycenter = pushforward
of the optimal multi-coupling under the Fréchet map) and a fixed-support
fallback that optimizes weights on a given grid of S points as one joint LP.
The LP's shared barycenter weights are eliminated by substitution (w = row
sums of the first plan), so a single exact solve covers all J couplings at
once: plans pi_j of shape S x n_j with the member weights as column sums
and row sums that agree with those of pi_0.

That LP is a primal simplex over the J cost blocks lam_j C_j, with no
constraint matrix (:func:`_fixed_support_lp`).  It prices every plan entry
with one broadcast per block and reads an entering column off the entry's
(j, s, i) triple: pi_0[s, i] has 1 + (J - 1) nonzeros, pi_j[s, i] for
j >= 1 has 2.  It starts with all mass on the best Dirac s* of the support
(:func:`_dirac_start`), drops the agreement row of s* (the one redundant row
per member) and completes the basis with the zero-level cells pi_j[s, 0],
s != s*; that basis is feasible and nonsingular on every space, so there is
no phase one.  The pivots are the loop of :mod:`otbary.pivoting`, shared
with the coupling LP of the multi-marginal route: it keeps the product
form of the basis inverse, appending one update per pivot, and refactors
every 64 pivots (more from m = 256 rows) and before it stops; it returns
round-off levels as 0.  The plans' column sums and agreement are checked
before returning.

Per-measure costs are read off the solution, with no transport solve after
the LP.  The coupling's projection onto (member j, barycenter atom) is a
plan between nu and mu_j of cost c_j >= W_p^p(nu, mu_j), and
sum_j lam_j c_j is the optimal objective, which is at most
sum_j lam_j W_p^p(nu, mu_j); so c_j = W_p^p(nu, mu_j) wherever lam_j > 0.
The same holds for the joint LP's plans, c_j = <C_j, pi_j>.  A member of
weight 0 does not enter either LP, so its cost is the one transport solve
left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NumericalFailure
from .measures import DiscreteMeasure, MeasureEnsemble
from .multimarginal import (
    DEFAULT_PRODUCT_CAP,
    MARGINAL_TOL,
    pushforward_barycenter,
    solve_multimarginal,
)
from .pivoting import check_rows, primal_simplex
from .spaces import MetricMatrix, Space, as_atoms, check_order, pairwise_distances
from .transport import wasserstein


@dataclass
class BarycenterResult:
    measure: DiscreteMeasure
    objective: float
    method: str
    per_measure_costs: list[float] = field(default_factory=list)
    pivots: int = 0
    min_reduced_cost: float | None = None


def ensemble_objective(
    space: Space, p: float, ens: MeasureEnsemble, nu: DiscreteMeasure
) -> float:
    """sum_j lam_j W_p^p(nu, mu_j)."""
    total = 0.0
    for lam_j, mu_j in zip(ens.lam, ens.measures):
        w, _ = wasserstein(space, p, nu, mu_j)
        total += lam_j * w**p
    return total


def _with_unweighted(space, p, ens, nu, costs) -> list[float]:
    # A plan to a member of weight 0 is arbitrary, so only its own
    # transport gives W_p^p.
    costs = [float(c) for c in costs]
    for j in np.flatnonzero(ens.lam == 0):
        costs[j] = wasserstein(space, p, nu, ens.measures[j])[0] ** p
    return costs


def _paired_distances(space, xs, ys) -> np.ndarray:
    if isinstance(space, MetricMatrix):
        return space.dist[xs, ys]
    diff = xs - ys
    return np.sqrt((diff * diff).sum(axis=1))


def barycenter_finite(
    space: Space,
    p: float,
    ens: MeasureEnsemble,
    *,
    max_product_size: int = DEFAULT_PRODUCT_CAP,
) -> BarycenterResult:
    """Exact barycenter via the multi-marginal coupling pushforward;
    c_j = sum_k mass_k d(x_k, a_{j, i_kj})^p over the coupling's entries."""
    gamma = solve_multimarginal(space, p, ens, max_product_size=max_product_size)
    nu = pushforward_barycenter(space, p, ens, gamma)
    mass = gamma.mass / gamma.mass.sum()
    costs = [
        mass @ _paired_distances(space, gamma.points, m.atoms[gamma.index[:, j]]) ** p
        for j, m in enumerate(ens.measures)
    ]
    costs = _with_unweighted(space, p, ens, nu, costs)
    return BarycenterResult(
        measure=nu,
        objective=float(np.dot(ens.lam, costs)),
        method="multimarginal",
        per_measure_costs=costs,
        pivots=gamma.pivots,
        min_reduced_cost=gamma.min_reduced_cost,
    )


def _dirac_start(costs, weights):
    """Start basis of the fixed-support LP: all mass on the best Dirac.

    s* minimizes sum_j <costs_j[s, :], weights_j> (the first on ties).  The
    basis holds every cell pi_j[s*, i], at level weights_j[i], and for each
    member j >= 1 the zero-level cells pi_j[s, 0], s != s*.  With the
    agreement rows first it is block-triangular with +-1 diagonal blocks,
    so it is nonsingular and feasible on every space.  Returns s* and the
    basis as flat variable ids (block j, row s, column i at
    offset_j + s n_j + i).
    """
    S = costs[0].shape[0]
    s_star = int(np.argmin(sum(C_j @ w_j for C_j, w_j in zip(costs, weights))))
    sizes = [C_j.shape[1] for C_j in costs]
    offsets = np.cumsum([0] + [S * n for n in sizes])
    others = np.delete(np.arange(S), s_star)
    basis = [offsets[j] + s_star * n + np.arange(n) for j, n in enumerate(sizes)]
    basis += [offsets[j] + others * sizes[j] for j in range(1, len(sizes))]
    return s_star, np.concatenate(basis)


def _fixed_support_lp(costs, weights):
    """min sum_j <costs_j, pi_j> over plans pi_j (S x n_j) whose column sums
    are ``weights[j]`` and whose row sums all equal those of pi_0.

    Rows: the column sums of every plan, then the agreement of plan j >= 1
    with plan 0 at each support point but s* (the one implied row per
    member).  With duals v_j on the column sums and w_j (w_j[s*] = 0) on
    the agreement rows, plan 0 is priced as costs_0 - v_0[None, :] -
    sum_j w_j[:, None] and plan j >= 1 as costs_j - v_j[None, :] +
    w_j[:, None].

    Returns the plans, the pivot count and the least reduced cost of the
    final pricing pass.
    """
    S = costs[0].shape[0]
    J = len(costs)
    sizes = [C_j.shape[1] for C_j in costs]
    offsets = np.cumsum([0] + [S * n for n in sizes])
    col_rows = np.cumsum([0] + sizes)  # first column-sum row of each plan
    s_star, basis = _dirac_start(costs, weights)
    others = np.delete(np.arange(S), s_star)
    agree = np.full(S, -1)
    agree[others] = col_rows[-1] + np.arange(S - 1)  # agreement row of plan 1
    b = np.concatenate(list(weights) + [np.zeros((J - 1) * (S - 1))])
    m = b.shape[0]

    def column(k):
        j = int(np.searchsorted(offsets, k, side="right")) - 1
        s, i = divmod(int(k - offsets[j]), sizes[j])
        a = np.zeros(m)
        a[col_rows[j] + i] = 1.0
        if s != s_star:
            if j == 0:
                a[agree[s] + (S - 1) * np.arange(J - 1)] = 1.0
            else:
                a[agree[s] + (S - 1) * (j - 1)] = -1.0
        return a

    reduced = np.empty(offsets[-1])
    blocks = [reduced[offsets[j] : offsets[j + 1]].reshape(S, n) for j, n in enumerate(sizes)]
    w = np.zeros((J - 1, S))

    def price(y):
        w[:, others] = y[col_rows[-1] :].reshape(J - 1, S - 1)
        np.subtract(costs[0], y[: sizes[0]], out=blocks[0])
        blocks[0] -= w.sum(axis=0)[:, None]
        for j in range(1, J):
            np.subtract(costs[j], y[col_rows[j] : col_rows[j + 1]], out=blocks[j])
            blocks[j] += w[j - 1][:, None]
        return reduced

    c = np.concatenate([C_j.ravel() for C_j in costs])
    basis, xB, pivots, min_reduced_cost, _ = primal_simplex(c, b, basis, column, price)
    x = np.zeros(offsets[-1])
    x[basis] = xB
    plans = [x[offsets[j] : offsets[j + 1]].reshape(S, n) for j, n in enumerate(sizes)]
    return plans, pivots, min_reduced_cost


def barycenter_fixed_support(
    space: Space, p: float, ens: MeasureEnsemble, support
) -> BarycenterResult:
    """Best measure supported on ``support``: one joint LP over J coupled
    transport plans sharing their first marginal; c_j = <C_j, pi_j>.

    Raises:
        DimensionMismatch: p < 1, or an empty support.
        ProductSizeExceeded: an LP of more than ``pivoting.MAX_ROWS`` rows.
        NumericalFailure: the simplex failed, or the plans miss the weights
            or disagree on the support by more than ``MARGINAL_TOL``.
    """
    check_order(p)
    support = as_atoms(space, support)
    if support.shape[0] == 0:
        raise DimensionMismatch("support must be nonempty")
    measures = ens.measures
    S, J = support.shape[0], len(measures)
    check_rows(sum(m.n_atoms for m in measures) + (J - 1) * (S - 1))
    C = [pairwise_distances(space, support, m.atoms) ** p for m in measures]
    plans, pivots, min_reduced_cost = _fixed_support_lp(
        [lam_j * C_j for lam_j, C_j in zip(ens.lam, C)], [m.weights for m in measures]
    )
    w = plans[0].sum(axis=1)
    for pi, m in zip(plans, measures):
        if np.max(np.abs(pi.sum(axis=0) - m.weights)) > MARGINAL_TOL:
            raise NumericalFailure("fixed-support plans miss the weights")
        if np.max(np.abs(pi.sum(axis=1) - w)) > MARGINAL_TOL:
            raise NumericalFailure("fixed-support plans disagree on the support")
    nu = DiscreteMeasure(space, support, w / w.sum())
    costs = [float(C_j.ravel() @ pi.ravel()) for C_j, pi in zip(C, plans)]
    costs = _with_unweighted(space, p, ens, nu, costs)
    return BarycenterResult(
        measure=nu,
        objective=float(np.dot(ens.lam, costs)),
        method="fixed-support",
        per_measure_costs=costs,
        pivots=pivots,
        min_reduced_cost=min_reduced_cost,
    )


def variance(
    space: Space,
    p: float,
    ens: MeasureEnsemble,
    *,
    max_product_size: int = DEFAULT_PRODUCT_CAP,
) -> float:
    """Spread of the ensemble around its barycenter:
    inf_nu sum_j lam_j W_p^p(nu, mu_j)."""
    return barycenter_finite(
        space, p, ens, max_product_size=max_product_size
    ).objective


def quantize(m: DiscreteMeasure, k: int) -> DiscreteMeasure:
    """Support reduction to at most k atoms: greedy farthest-first center
    selection over the atoms, mass assigned to the nearest center.

    Centers are nested in k, so the quantization error is nonincreasing.
    Selection is deterministic.
    """
    if k < 1:
        raise DimensionMismatch(f"k must be >= 1, got {k}")
    if k >= m.n_atoms:
        return m
    D = pairwise_distances(m.space, m.atoms, m.atoms)
    start = int(np.argmax(m.weights))
    centers = [start]
    nearest = D[:, start].copy()
    while len(centers) < k:
        nxt = int(np.argmax(nearest))
        centers.append(nxt)
        nearest = np.minimum(nearest, D[:, nxt])
    centers = sorted(centers)
    assign = np.argmin(D[:, centers], axis=1)
    weights = np.bincount(assign, weights=m.weights, minlength=len(centers))
    return DiscreteMeasure(m.space, m.atoms[centers], weights)
