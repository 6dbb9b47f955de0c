"""Exact multi-marginal optimal transport and the pushforward barycenter.

The cost of an index tuple is the infimum over the ground space of the
weighted d^p sum, i.e. the Fréchet-mean objective of the tuple's atoms; the
minimizer itself is the barycenter-map image used by
:func:`pushforward_barycenter`.  Both come from one batched pass,
:func:`otbary.frechet.frechet_means` over every tuple the solve needs, with
no per-tuple Python call.  The coupling keeps the Fréchet means of its
positive-mass tuples, so the pushforward solves no tuple a second time.

The production path (:func:`solve_multimarginal`) has two routes.  On the
line with p = 2 it returns the comonotone (north-west-corner) coupling of
the sorted marginals, built from the common refinement of their cumulative
weights (:mod:`otbary.staircase`, shared with the two-marginal line route
of :func:`otbary.transport.wasserstein`): the cost
sum_j lam_j |x_j - mean|^2 is submodular, so that coupling is optimal
(Carlier, J. Convex Anal. 2003) and needs no LP at all.  Every
other input runs a primal simplex on the cost tensor C of shape
(n_1, ..., n_J) (:func:`_tensor_simplex`).  It keeps every marginal row of
member 1 and all but the last row of every other member, which leaves
m = sum_j n_j - J + 1 independent rows, starts at the staircase basis (a
monotone lattice path from (0, ..., 0) to (n_1 - 1, ..., n_J - 1) through
the north-west-corner coupling, feasible on every space, so there is no
phase one), and prices every tuple at once as
C - u_1[:, None, ...] - ... - u_J[..., :] in one preallocated buffer.  No
constraint matrix over the product is ever built; an entering column is
read off its tuple's J indices.  Before returning, the coupling's marginals
are checked against the weights.

:func:`brute_force_multimarginal` is the independent oracle: it assembles
the full LP entry by entry and hands it to ``scipy.optimize.linprog``
(HiGHS), sharing no LP code with the production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import (
    DimensionMismatch,
    InfeasibleWeights,
    NumericalFailure,
    ProductSizeExceeded,
)
from .frechet import frechet_mean, frechet_means
from .measures import DiscreteMeasure, MeasureEnsemble
from .spaces import Euclidean, MetricMatrix, Space
from .staircase import MASS_CUT, _comonotone_entries, _staircase

DEFAULT_PRODUCT_CAP = 10**6
BRUTE_FORCE_CAP = 10**4
MARGINAL_TOL = 1e-9
# Pivoting rules of the tensor simplex, as in the dense otbary.simplex except
# that the pivot tolerance scales with the entering column's largest entry.
PIVOT_TOL = 1e-11
REDUCED_COST_TOL = 1e-9
MAX_PIVOTS = 200_000


@dataclass
class MultiCoupling:
    """Sparse J-way coupling: its positive-mass index tuples (rows of
    ``index``, in increasing lexicographic order), their masses, the Fréchet
    mean of each tuple's atoms (``points``: (K, d) coordinates, or (K,)
    labels on a metric matrix) and the objective.

    ``pivots`` and ``min_reduced_cost`` come from the tensor simplex: its
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


def mm_cost(space: Space, p: float, lam, atoms: tuple) -> tuple[float, np.ndarray | int]:
    """Cost inf_x sum_j lam_j d(atom_j, x)^p and its minimizing point."""
    lam = np.asarray(lam, dtype=float).ravel()
    if len(atoms) != lam.shape[0]:
        raise DimensionMismatch(f"{len(atoms)} atoms with {lam.shape[0]} weights")
    if isinstance(space, MetricMatrix):
        pts = list(atoms)
    else:
        pts = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a in atoms])
    res = frechet_mean(space, p, pts, lam)
    return res.objective, res.point


def _index_grid(shape: tuple[int, ...]) -> np.ndarray:
    # (N, J) integer tuples in C order.
    return np.indices(shape).reshape(len(shape), -1).T


def _frechet_pass(space, p, lam, measures, idx):
    # Fréchet mean and cost of every index tuple (rows of idx), in one batch.
    tuples = np.stack([m.atoms[idx[:, j]] for j, m in enumerate(measures)], axis=1)
    points, costs, _ = frechet_means(space, p, tuples, lam)
    return points, costs


def _cost_vector(space, p, lam, measures, idx) -> np.ndarray:
    return _frechet_pass(space, p, lam, measures, idx)[1]


def _tensor_simplex(C, measures):
    """Primal simplex for min <C, x> over the couplings of ``measures``.

    Row (j, i) says that the tuples with i_j = i carry member j's weight i;
    the last row of every member j >= 2 is dropped (it is implied by the
    others), leaving m = sum_j n_j - J + 1 independent rows.  The basis
    starts at the staircase, keeps its m x m matrix and refactors it every
    pivot with LAPACK's getrf, the routine behind ``scipy.linalg.lu_factor``,
    called directly because the wrapper's checks cost more than the solves
    at these sizes.  Dantzig pricing switches to Bland's rule after
    3(m + 1) degenerate pivots in a row; ratio ties go to the smallest flat
    tuple index.

    Returns the basis as flat tuple indices, its masses (clipped at 0), the
    pivot count and the least reduced cost of the last pricing pass.

    Raises:
        NumericalFailure: singular basis, no pivot row, or pivot cap hit.
    """
    shape = C.shape
    J = len(shape)
    starts = np.cumsum((0,) + shape[:-1])
    kept = np.ones(sum(shape), dtype=bool)
    kept[starts[1:] + np.asarray(shape[1:]) - 1] = False
    row_of = np.cumsum(kept) - 1  # reduced row of each kept full row
    b = np.concatenate([m.weights for m in measures])[kept]
    m = b.shape[0]

    def column(tup):
        full = starts + tup
        a = np.zeros(m)
        a[row_of[full[kept[full]]]] = 1.0
        return a

    path = _staircase(measures)
    basis = np.ravel_multi_index(path.T, shape)
    B = np.stack([column(tup) for tup in path], axis=1)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (B,))

    c = C.ravel()
    # Duals of the full system (0 on the dropped rows); u[j] is member j's
    # block, shaped to broadcast along axis j of the tensor.
    y = np.zeros(sum(shape))
    u = [
        y[s : s + n].reshape([n if i == j else 1 for i in range(J)])
        for j, (s, n) in enumerate(zip(starts, shape))
    ]
    reduced = np.empty(shape)
    flat = reduced.reshape(-1)
    degenerate_streak = 0
    bland = False
    for it in range(MAX_PIVOTS + 1):
        lu, piv, info = getrf(B)
        if info > 0:
            # An exactly zero pivot (where lu_factor would warn): a basis is
            # never singular, so this is lost accuracy, not a verdict.
            raise NumericalFailure("singular basis")
        xB = getrs(lu, piv, b)[0]
        y[kept] = getrs(lu, piv, c[basis], trans=1)[0]
        np.subtract(C, u[0], out=reduced)
        for u_j in u[1:]:
            reduced -= u_j
        flat[basis] = 0.0
        if bland:
            below = flat < -REDUCED_COST_TOL
            k = int(below.argmax())
            if not below[k]:
                break
        else:
            k = int(flat.argmin())
            if flat[k] >= -REDUCED_COST_TOL:
                break
        if it == MAX_PIVOTS:
            raise NumericalFailure("simplex pivot cap exceeded")
        a = column(np.array(np.unravel_index(k, shape)))
        d = getrs(lu, piv, a)[0]
        # Relative to the column's largest entry: entries of B^-1 a reach
        # 1e5 on J = 3 bases, and a pivot on a round-off entry near 1e-11
        # made the next basis exactly singular.
        pos = d > PIVOT_TOL * max(1.0, float(np.abs(d).max()))
        if not pos.any():
            # The polytope is bounded, so this is lost accuracy, not a ray.
            raise NumericalFailure("entering column has no pivot row")
        ratios = np.clip(xB[pos], 0.0, None) / d[pos]
        theta = ratios.min()
        tied = np.flatnonzero(pos)[ratios <= theta + 1e-15]
        leave = int(tied[np.argmin(basis[tied])])
        basis[leave] = k
        B[:, leave] = a
        if theta <= 1e-13:
            degenerate_streak += 1
            if degenerate_streak > 3 * (m + 1):
                bland = True
        else:
            degenerate_streak = 0
            bland = False
    return basis, np.clip(xB, 0.0, None), it, float(flat.min())


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
    Other inputs run the tensor simplex over the whole product.  Either
    way the entries come in increasing lexicographic order, masses <= 1e-15
    are dropped, and the marginals are checked within ``MARGINAL_TOL``.

    Raises:
        ProductSizeExceeded: product support larger than ``max_product_size``.
        NumericalFailure: the simplex failed, or the marginals miss the
            weights.
    """
    if ens.space != space:
        raise DimensionMismatch("ensemble does not live on the given space")
    measures = ens.measures
    shape = tuple(m.n_atoms for m in measures)
    if np.prod([float(n) for n in shape]) > max_product_size:
        raise ProductSizeExceeded(
            f"product support {shape} exceeds cap {max_product_size}"
        )
    if abs(ens.lam.sum() - 1.0) > MARGINAL_TOL:
        raise InfeasibleWeights("ensemble weights are not a probability vector")
    if len(measures) == 1:
        m = measures[0]
        return MultiCoupling(
            index=np.arange(m.n_atoms)[:, None], mass=m.weights.copy(),
            points=m.atoms.copy(), objective=0.0, shape=shape,
        )
    pivots, min_reduced_cost = 0, None
    if isinstance(space, Euclidean) and space.dim == 1 and p == 2:
        idx, x = _comonotone_entries(measures)
        points, costs = _frechet_pass(space, p, ens.lam, measures, idx)
    else:
        idx = _index_grid(shape)
        points, costs = _frechet_pass(space, p, ens.lam, measures, idx)
        basis, x, pivots, min_reduced_cost = _tensor_simplex(costs.reshape(shape), measures)
        order = np.argsort(basis)
        basis, x = basis[order], x[order]
        idx, points, costs = idx[basis], points[basis], costs[basis]
    keep = x > MASS_CUT
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


def brute_force_multimarginal(
    space: Space,
    p: float,
    ens: MeasureEnsemble,
    *,
    max_product_size: int = BRUTE_FORCE_CAP,
) -> MultiCoupling:
    """Independent oracle: same LP, assembled entry by entry and solved by
    scipy's HiGHS backend.  No solver code shared with
    :func:`solve_multimarginal`."""
    import scipy.optimize  # only the oracle needs it; keeps `import otbary` light

    measures = ens.measures
    shape = tuple(m.n_atoms for m in measures)
    if np.prod([float(n) for n in shape]) > max_product_size:
        raise ProductSizeExceeded(
            f"product support {shape} exceeds brute-force cap {max_product_size}"
        )
    tuples = list(np.ndindex(*shape))
    costs, points = [], []
    for tup in tuples:
        atoms = tuple(measures[j].atoms[i] for j, i in enumerate(tup))
        value, point = mm_cost(space, p, ens.lam, atoms)
        costs.append(value)
        points.append(point)
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
        np.asarray(costs), A_eq=A_eq, b_eq=np.asarray(b_eq), method="highs"
    )
    if not res.success:
        raise InfeasibleWeights(f"oracle LP failed: {res.message}")
    keep = np.flatnonzero(res.x > MASS_CUT)
    return MultiCoupling(
        index=np.array(tuples, dtype=np.intp)[keep], mass=res.x[keep],
        points=np.array(points)[keep], objective=float(res.fun), shape=shape,
    )
