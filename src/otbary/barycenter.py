"""Barycenters and variance of finitely supported measure ensembles.

Two routes: the exact multi-marginal construction (barycenter = pushforward
of the optimal multi-coupling under the Fréchet map) and a fixed-support
fallback that optimizes weights on a given grid as one joint LP.  The LP's
shared barycenter weights are eliminated by substitution (w = row sums of
the first plan), so a single exact solve covers all J couplings at once.

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
    pushforward_barycenter,
    solve_multimarginal,
)
from .simplex import solve_lp
from .spaces import MetricMatrix, Space, as_atoms, pairwise_distances
from .transport import wasserstein


@dataclass
class BarycenterResult:
    measure: DiscreteMeasure
    objective: float
    method: str
    per_measure_costs: list[float] = field(default_factory=list)


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
    )


def barycenter_fixed_support(
    space: Space, p: float, ens: MeasureEnsemble, support
) -> BarycenterResult:
    """Best measure supported on ``support``: one joint LP over J coupled
    transport plans sharing their first marginal; c_j = <C_j, pi_j>."""
    support = as_atoms(space, support)
    S = support.shape[0]
    if S == 0:
        raise DimensionMismatch("support must be nonempty")
    measures = ens.measures
    J = len(measures)
    sizes = [m.n_atoms for m in measures]
    blocks = np.concatenate([[0], np.cumsum([S * n for n in sizes])])
    n_vars = int(blocks[-1])

    C = [(pairwise_distances(space, support, m.atoms) ** p).ravel() for m in measures]
    c = np.concatenate([lam_j * Cj for lam_j, Cj in zip(ens.lam, C)])

    # Rows: column sums of each plan fixed to the target weights, plus
    # row-sum agreement of every plan with plan 0 (eliminated shared w).
    rows = sum(sizes) + S * (J - 1)
    A = np.zeros((rows, n_vars))
    b = np.zeros(rows)
    r = 0
    for j, m in enumerate(measures):
        for i in range(m.n_atoms):
            cols = blocks[j] + np.arange(S) * m.n_atoms + i
            A[r, cols] = 1.0
            b[r] = m.weights[i]
            r += 1
    for j in range(1, J):
        for s in range(S):
            A[r, blocks[0] + s * sizes[0] : blocks[0] + (s + 1) * sizes[0]] = 1.0
            A[r, blocks[j] + s * sizes[j] : blocks[j] + (s + 1) * sizes[j]] -= 1.0
            b[r] = 0.0
            r += 1
    res = solve_lp(c, A, b)
    pi0 = res.x[blocks[0] : blocks[1]].reshape(S, sizes[0])
    w = np.clip(pi0.sum(axis=1), 0.0, None)
    if w.sum() <= 0:
        raise NumericalFailure("fixed-support LP returned zero total mass")
    nu = DiscreteMeasure(space, support, w / w.sum())
    costs = [C[j] @ res.x[blocks[j] : blocks[j + 1]] for j in range(J)]
    costs = _with_unweighted(space, p, ens, nu, costs)
    return BarycenterResult(
        measure=nu,
        objective=float(np.dot(ens.lam, costs)),
        method="fixed-support",
        per_measure_costs=costs,
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
    weights = np.zeros(len(centers))
    for atom_idx, c_idx in enumerate(assign):
        weights[c_idx] += m.weights[atom_idx]
    return DiscreteMeasure(m.space, m.atoms[centers], weights)
