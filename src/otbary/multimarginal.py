"""Exact multi-marginal optimal transport and the pushforward barycenter.

The cost of an index tuple is the infimum over the ground space of the
weighted d^p sum, i.e. the Fréchet-mean objective of the tuple's atoms; the
minimizer itself is the barycenter-map image used by
:func:`pushforward_barycenter`.  The LP needs every tuple's cost, but only
the tuples of the optimal basis (at most sum_j n_j - J + 1) need a point.
Both :func:`otbary.frechet.product_costs` and the batched pass
:func:`otbary.frechet.frechet_means` take the members' atoms; the pass
also takes an (N, J) array of index tuples and gathers their points
itself, a chunk at a time.  Where the costs have a closed form
(:func:`otbary.frechet.has_product_costs`: Euclidean p = 2 and metric
matrices) the tensor comes from ``product_costs``, which builds no
per-tuple array, and the pass then runs on the basic tuples alone.
Elsewhere (Euclidean p != 2 off the line) one pass over the index grid of the whole
product gives the costs, and the basic tuples keep its points.  Either
way the points and the objective come from the pass, and the coupling (a
:class:`otbary.staircase.Coupling`, the type the two-marginal routes
return too) keeps the Fréchet means of its positive-mass tuples as its
``points``, so the pushforward solves no tuple a second time.

The production path (:func:`solve_multimarginal`) has two routes.  On the
line (:func:`otbary.spaces.is_line`, which
:func:`otbary.consistency.run_experiment` asks too) it returns the
comonotone (north-west-corner) coupling of the sorted marginals, built
from the common refinement of their cumulative weights
(:mod:`otbary.staircase`, shared with the two-marginal line route of
:func:`otbary.transport.wasserstein`), at every p >= 1.  Every W_p on the
line is the integral over t in [0, 1] of |Q_nu(t) - Q_mu(t)|^p, so the
objective of any barycenter candidate is at least the integral of
min_z sum_j lam_j |z - Q_j(t)|^p, which a nondecreasing choice of the
pointwise minimizers attains; the coupling that carries the quantile
tuples costs exactly that integral, so it is optimal and needs no LP at
all.  It has at most sum_j n_j - J + 1 entries and builds nothing over
the product, so the product bound does not apply to it.  Every other
space builds the cost tensor C of shape (n_1, ..., n_J), of at most
``MAX_PRODUCT`` tuples, and runs the one coupling LP,
:func:`otbary.staircase.coupling_simplex`, the setup
:func:`otbary.transport.solve_transport` runs at J = 2: the staircase
start, sum_j n_j - J + 1 rows, pricing in two passes over the tensor and
no constraint matrix, on the pivot loop of :mod:`otbary.pivoting`.
Before returning, the coupling's marginals are checked against the
weights (:func:`otbary.staircase.check_marginals`).

The independent oracles live with the tests: a HiGHS LP assembled entry by
entry, and a dense two-phase simplex.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ProductSizeExceeded
from .frechet import frechet_means, has_product_costs, product_costs
from .measures import DiscreteMeasure, MeasureEnsemble
from .pivoting import check_rows
from .spaces import Space, check_order, is_line
from .staircase import Coupling, _comonotone_entries, check_marginals, coupling_simplex

MAX_PRODUCT = 10**6  # tuples of the largest product the coupling LP takes on


def _index_grid(shape: tuple[int, ...]) -> np.ndarray:
    # (N, J) integer tuples in C order.
    return np.indices(shape).reshape(len(shape), -1).T


def solve_multimarginal(space: Space, p: float, ens: MeasureEnsemble) -> Coupling:
    """Optimal vertex of the multi-marginal transportation polytope.

    On the line (J >= 2, any p) the answer is the comonotone coupling,
    with at most sum_j n_j - J + 1 entries and objective sum mass * cost;
    it is exact because every W_p there integrates |gap|^p of quantile
    functions, so the pointwise Fréchet means of the members' quantiles
    form an optimal barycenter.  Other spaces run the coupling LP over the
    whole product, and the Fréchet means of its basic tuples give the
    points and the objective.
    Either way the cells come in increasing lexicographic order, zero
    masses (the pivot loop returns round-off levels as 0) are dropped, the
    objective sums the cells kept, the coupling holds no duals, and the
    marginals are checked within ``staircase.MARGINAL_TOL``.

    Raises:
        DimensionMismatch: p < 1.
        ProductSizeExceeded: off the line, a product support of more than
            ``MAX_PRODUCT`` tuples or an LP past ``pivoting.check_rows``;
            raised before any cost is built.
        NumericalFailure: the simplex failed, or the marginals miss the
            weights.
    """
    if ens.space != space:
        raise DimensionMismatch("ensemble does not live on the given space")
    check_order(p)
    measures = ens.measures
    shape = tuple(m.n_atoms for m in measures)
    if len(measures) == 1:
        m = measures[0]
        return Coupling(
            index=np.arange(m.n_atoms)[:, None], mass=m.weights.copy(), shape=shape,
            objective=0.0, points=m.atoms.copy(),
        )
    pivots, min_reduced_cost = 0, None
    weights = [m.weights for m in measures]
    atoms = [m.atoms for m in measures]
    if is_line(space):
        idx, x = _comonotone_entries(weights)
        points, costs, _ = frechet_means(space, p, ens.lam, atoms, idx)
    else:
        size = math.prod(shape)
        if size > MAX_PRODUCT:
            raise ProductSizeExceeded(
                f"product support {shape} exceeds the bound of {MAX_PRODUCT} tuples"
            )
        check_rows(sum(shape) - len(shape) + 1, size)
        full = None
        if has_product_costs(space, p):
            C = product_costs(space, p, ens.lam, atoms)
        else:
            # No closed form: the costs come from one Fréchet pass over the
            # product, and the basic tuples keep its points.
            full = frechet_means(space, p, ens.lam, atoms, _index_grid(shape))
            C = full[1].reshape(shape)
        basis, x, pivots, min_reduced_cost, _ = coupling_simplex(C, weights)
        order = np.argsort(basis)
        basis, x = basis[order], x[order]
        idx = np.column_stack(np.unravel_index(basis, shape))
        if full is None:
            points, costs, _ = frechet_means(space, p, ens.lam, atoms, idx)
        else:
            points, costs = full[0][basis], full[1][basis]
    keep = x > 0
    gamma = Coupling(
        index=idx[keep], mass=x[keep], shape=shape, objective=float(costs @ x),
        pivots=pivots, min_reduced_cost=min_reduced_cost, points=points[keep],
    )
    check_marginals(gamma.marginals(), weights, "coupling")
    return gamma


def pushforward_barycenter(ens: MeasureEnsemble, gamma: Coupling) -> DiscreteMeasure:
    """Image of the coupling under the barycenter map: one atom per cell,
    located at the tuple's Fréchet mean (computed once, by the solve that
    produced ``gamma``), on the ensemble's space.  A transport plan has no
    means and raises DimensionMismatch."""
    if gamma.shape != tuple(m.n_atoms for m in ens.measures):
        raise DimensionMismatch("coupling shape does not match the ensemble")
    if gamma.points is None:
        raise DimensionMismatch("coupling carries no Fréchet means")
    return DiscreteMeasure(ens.space, gamma.points, gamma.mass / gamma.mass.sum())
