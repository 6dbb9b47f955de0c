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
weights: the cost sum_j lam_j |x_j - mean|^2 is submodular, so that coupling
is optimal (Carlier, J. Convex Anal. 2003) and needs no LP at all.  Every
other input flattens the product support into one equality-form LP (one
marginal row per atom; the redundant rows are dropped automatically during
phase one) and solves it with the in-house simplex.
:func:`brute_force_multimarginal` is the independent oracle: it assembles
the same LP entry by entry and hands it to ``scipy.optimize.linprog``
(HiGHS), sharing no LP code with the production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleWeights, ProductSizeExceeded
from .frechet import frechet_mean, frechet_means
from .measures import DiscreteMeasure, MeasureEnsemble
from .simplex import solve_lp
from .spaces import Euclidean, MetricMatrix, Space

DEFAULT_PRODUCT_CAP = 10**6
BRUTE_FORCE_CAP = 10**4
MARGINAL_TOL = 1e-9
MASS_CUT = 1e-15


@dataclass
class MultiCoupling:
    """Sparse J-way coupling: its positive-mass index tuples (rows of
    ``index``, in increasing lexicographic order), their masses, the Fréchet
    mean of each tuple's atoms (``points``: (K, d) coordinates, or (K,)
    labels on a metric matrix) and the objective."""

    index: np.ndarray
    mass: np.ndarray
    points: np.ndarray
    objective: float
    shape: tuple[int, ...]

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


def _marginal_system(measures, idx):
    shape = tuple(m.n_atoms for m in measures)
    total_rows = sum(shape)
    N = idx.shape[0]
    A = np.zeros((total_rows, N))
    b = np.concatenate([m.weights for m in measures])
    offset = 0
    cols = np.arange(N)
    for j, n_j in enumerate(shape):
        A[offset + idx[:, j], cols] = 1.0
        offset += n_j
    return A, b


def _comonotone_entries(measures) -> tuple[np.ndarray, np.ndarray]:
    # One entry per interval of the common refinement of the cumulative
    # weights; member j sits at its quantile index on that interval.  Atoms
    # are sorted, so increasing intervals give increasing index tuples.
    inner = [np.cumsum(m.weights)[:-1] for m in measures]
    t = np.unique(np.concatenate([[0.0, 1.0], *inner]))
    mass = np.diff(t)
    keep = mass > MASS_CUT
    idx = np.stack([np.searchsorted(c, t[:-1][keep], side="right") for c in inner], axis=1)
    return idx, mass[keep]


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
    Other inputs solve the dense product LP.  Either way the entries come
    in increasing lexicographic order and masses <= 1e-15 are dropped.

    Raises:
        ProductSizeExceeded: product support larger than ``max_product_size``.
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
    if isinstance(space, Euclidean) and space.dim == 1 and p == 2:
        idx, x = _comonotone_entries(measures)
        points, costs = _frechet_pass(space, p, ens.lam, measures, idx)
        objective = float(costs @ x)
    else:
        idx = _index_grid(shape)
        points, costs = _frechet_pass(space, p, ens.lam, measures, idx)
        res = solve_lp(costs, *_marginal_system(measures, idx))
        x, objective = res.x, res.objective
    keep = x > MASS_CUT
    return MultiCoupling(
        index=idx[keep], mass=x[keep], points=points[keep], objective=objective, shape=shape
    )


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
