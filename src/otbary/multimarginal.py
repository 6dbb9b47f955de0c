"""Exact multi-marginal optimal transport and the pushforward barycenter.

The cost of an index tuple is the infimum over the ground space of the
weighted d^p sum, i.e. the Fréchet-mean objective of the tuple's atoms; the
minimizer itself is the barycenter-map image used by
:func:`pushforward_barycenter`.  The LP needs every tuple's cost, but only
the tuples of the optimal basis (at most sum_j n_j - J + 1) need a point.
Both :func:`otbary.frechet.product_costs` and the batched pass
:func:`otbary.frechet.frechet_means` take the members' atoms; the pass
also takes an (N, J) array of index tuples and gathers their points
itself, a chunk at a time.  At Euclidean p = 2 and on a metric matrix the
cost tensor comes from ``product_costs``, which builds no per-tuple array,
and the pass then runs on the basic tuples alone.  Euclidean p != 2 has no
closed form: one pass over the index grid of the whole product gives the
costs, and the basic tuples keep its points.  Either way the points and
the objective come from the pass, and the coupling keeps the Fréchet
means of its positive-mass tuples, so the pushforward solves no tuple a
second time.

The production path (:func:`solve_multimarginal`) has two routes.  On the
line with p = 2 it returns the comonotone (north-west-corner) coupling of
the sorted marginals, built from the common refinement of their cumulative
weights (:mod:`otbary.staircase`, shared with the two-marginal line route
of :func:`otbary.transport.wasserstein`): the cost
sum_j lam_j |x_j - mean|^2 is submodular, so that coupling is optimal
(Carlier, J. Convex Anal. 2003) and needs no LP at all.  It has at most
sum_j n_j - J + 1 entries and builds nothing over the product, so the
product cap does not apply to it.  Every other input builds the cost
tensor C of shape (n_1, ..., n_J), whose size the cap bounds, and runs the
one coupling LP, :func:`otbary.staircase.coupling_simplex`, the setup
:func:`otbary.transport.solve_transport` runs at J = 2: the staircase
start, sum_j n_j - J + 1 rows, pricing in two passes over the tensor and
no constraint matrix, on the pivot loop of :mod:`otbary.pivoting`.
Before returning, the coupling's marginals are checked against the
weights.

The independent oracles live with the tests: a HiGHS LP assembled entry by
entry, and a dense two-phase simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalFailure, ProductSizeExceeded
from .frechet import frechet_means, product_costs
from .measures import DiscreteMeasure, MeasureEnsemble
from .pivoting import check_rows
from .spaces import Euclidean, Space, check_order
from .staircase import _comonotone_entries, coupling_simplex

DEFAULT_PRODUCT_CAP = 10**6
MARGINAL_TOL = 1e-9


@dataclass
class MultiCoupling:
    """Sparse J-way coupling: its positive-mass index tuples (rows of
    ``index``, in increasing lexicographic order), their masses, the Fréchet
    mean of each tuple's atoms (``points``: (K, d) coordinates, or (K,)
    labels on a metric matrix) and the objective.

    ``pivots`` and ``min_reduced_cost`` come from the coupling LP: its
    pivot count and the least reduced cost of its final pricing pass over
    the whole product (basic tuples count as 0), the optimality certificate.
    Routes that price nothing (J = 1, the line at p = 2, the HiGHS oracle)
    leave 0 and None."""

    index: np.ndarray
    mass: np.ndarray
    points: np.ndarray
    objective: float
    shape: tuple[int, ...]
    pivots: int = 0
    min_reduced_cost: float | None = None

    @property
    def entries(self) -> list[tuple[tuple[int, ...], float]]:
        return [
            (tuple(int(i) for i in row), float(m)) for row, m in zip(self.index, self.mass)
        ]

    def marginals(self) -> list[np.ndarray]:
        return [
            np.bincount(self.index[:, j], weights=self.mass, minlength=n)
            for j, n in enumerate(self.shape)
        ]


def _index_grid(shape: tuple[int, ...]) -> np.ndarray:
    # (N, J) integer tuples in C order.
    return np.indices(shape).reshape(len(shape), -1).T


def solve_multimarginal(
    space: Space,
    p: float,
    ens: MeasureEnsemble,
    *,
    max_product_size: int = DEFAULT_PRODUCT_CAP,
) -> MultiCoupling:
    """Optimal vertex of the multi-marginal transportation polytope.

    On the line with p = 2 (J >= 2) the answer is the comonotone coupling,
    with at most sum_j n_j - J + 1 entries and objective sum mass * cost;
    it is exact because the quadratic Fréchet cost is submodular, so an
    optimal coupling is supported on a monotone chain of index tuples.
    Other inputs run the coupling LP over the whole product, and the
    Fréchet means of its basic tuples give the points and the objective.
    Either way the entries come in increasing lexicographic order, zero
    masses (the pivot loop returns round-off levels as 0) are dropped, the
    objective sums the entries kept, and the marginals are checked within
    ``MARGINAL_TOL``.

    Raises:
        DimensionMismatch: p < 1.
        ProductSizeExceeded: off the line p = 2 route, product support
            past ``max_product_size`` or rows past ``pivoting.MAX_ROWS``.
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
        return MultiCoupling(
            index=np.arange(m.n_atoms)[:, None], mass=m.weights.copy(),
            points=m.atoms.copy(), objective=0.0, shape=shape,
        )
    pivots, min_reduced_cost = 0, None
    weights = [m.weights for m in measures]
    atoms = [m.atoms for m in measures]
    if isinstance(space, Euclidean) and space.dim == 1 and p == 2:
        idx, x = _comonotone_entries(weights)
        points, costs, _ = frechet_means(space, p, ens.lam, atoms, idx)
    else:
        if np.prod([float(n) for n in shape]) > max_product_size:
            raise ProductSizeExceeded(
                f"product support {shape} exceeds cap {max_product_size}"
            )
        check_rows(sum(shape) - len(shape) + 1)
        full = None
        if isinstance(space, Euclidean) and p != 2:
            # No closed form: the costs come from one Fréchet pass over the
            # product, and the basic tuples keep its points.
            full = frechet_means(space, p, ens.lam, atoms, _index_grid(shape))
            C = full[1].reshape(shape)
        else:
            C = product_costs(space, p, ens.lam, atoms)
        basis, x, pivots, min_reduced_cost, _ = coupling_simplex(C, weights)
        order = np.argsort(basis)
        basis, x = basis[order], x[order]
        idx = np.column_stack(np.unravel_index(basis, shape))
        if full is None:
            points, costs, _ = frechet_means(space, p, ens.lam, atoms, idx)
        else:
            points, costs = full[0][basis], full[1][basis]
    keep = x > 0
    gamma = MultiCoupling(
        index=idx[keep], mass=x[keep], points=points[keep], objective=float(costs @ x),
        shape=shape, pivots=pivots, min_reduced_cost=min_reduced_cost,
    )
    for marg, m in zip(gamma.marginals(), measures):
        if np.max(np.abs(marg - m.weights)) > MARGINAL_TOL:
            raise NumericalFailure("coupling marginals miss the weights")
    return gamma


def pushforward_barycenter(
    space: Space, p: float, ens: MeasureEnsemble, gamma: MultiCoupling
) -> DiscreteMeasure:
    """Image of the coupling under the barycenter map: one atom per
    positive-mass entry, located at the tuple's Fréchet mean (computed once,
    by the solve that produced ``gamma``)."""
    if gamma.shape != tuple(m.n_atoms for m in ens.measures):
        raise DimensionMismatch("coupling shape does not match the ensemble")
    keep = gamma.mass > 0
    masses = gamma.mass[keep]
    return DiscreteMeasure(space, gamma.points[keep], masses / masses.sum())
