"""Test-side helpers that the library does not need.

``measures_equal`` compares two canonical measures up to a tolerance, and
``frechet_objective`` evaluates sum_j lam_j d(x, pts_j)^p straight from the
space's coordinates or matrix, an oracle apart from the library's Fréchet
kernels.  ``wasserstein_1d`` is the independent one-dimensional oracle: it
integrates the quantile-function gap over the common refinement of the
cumulative weights, exact for discrete inputs.  ``ensemble_objective``
scores a candidate barycenter by J transport solves, and ``dense`` spreads
a sparse coupling over its whole product for assertions that need the
array.
"""

from __future__ import annotations

import numpy as np

from otbary import (
    DimensionMismatch,
    DiscreteMeasure,
    MetricMatrix,
    UnsupportedSpace,
    wasserstein,
)
from otbary.spaces import check_order, is_line


def dense(coupling) -> np.ndarray:
    """The coupling as an array over its whole product, 0 off its cells."""
    out = np.zeros(coupling.shape)
    out[tuple(coupling.index.T)] = coupling.mass
    return out


def ensemble_objective(space, p: float, ens, nu: DiscreteMeasure) -> float:
    """sum_j lam_j W_p^p(nu, mu_j)."""
    total = 0.0
    for lam_j, mu_j in zip(ens.lam, ens.measures):
        w, _ = wasserstein(space, p, nu, mu_j)
        total += lam_j * w**p
    return total


def wasserstein_1d(p: float, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form W_p on the line via quantile functions; exact for
    discrete inputs.  Independent of the library's transport routes."""
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


def measures_equal(a: DiscreteMeasure, b: DiscreteMeasure, tol: float = 1e-9) -> bool:
    """Equality of canonical forms up to ``tol`` (labels exactly)."""
    if a.space != b.space or a.n_atoms != b.n_atoms:
        return False
    if isinstance(a.space, MetricMatrix):
        same_atoms = np.array_equal(a.atoms, b.atoms)
    else:
        same_atoms = np.max(np.abs(a.atoms - b.atoms)) <= tol
    return bool(same_atoms and np.max(np.abs(a.weights - b.weights)) <= tol)


def frechet_objective(space, p: float, pts, lam, x) -> float:
    """sum_j lam_j d(x, pts_j)^p."""
    lam = np.asarray(lam, dtype=float).ravel()
    if isinstance(space, MetricMatrix):
        d = space.dist[np.asarray(pts, dtype=np.intp), int(x)]
    else:
        pts = np.asarray(pts, dtype=float)
        d = np.linalg.norm(pts - np.asarray(x, dtype=float)[None, :], axis=1)
    return float(np.dot(lam, d**p))
