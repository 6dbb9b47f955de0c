"""Dense-matrix oracle for the library's LPs: min c.x, A x = b, x >= 0.

Two-phase revised simplex with deterministic pivoting: Dantzig entering rule
by default, switching to Bland's rule after a run of degenerate pivots so
cycling cannot occur; ratio-test ties always break toward the smallest basic
variable index.  Redundant equality rows are detected in phase one (an
artificial that cannot be pivoted out at zero level) and dropped, so callers
may pass rank-deficient transportation-style constraint systems as-is.

It takes the dense constraint matrix that the library never builds: the
tests check the tensor simplex of :mod:`otbary.multimarginal` and the
fixed-support LP of :mod:`otbary.barycenter` against it.  It shares no code
with their pivot loop, :mod:`otbary.pivoting` (no phase one there, no
matrix, an updated basis inverse); only the pivot tolerance is the same,
relative to the entering column's largest entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from otbary.errors import NumericalFailure

PIVOT_TOL = 1e-11
REDUCED_COST_TOL = 1e-9
FEAS_TOL = 1e-7
LEVEL_CUT = 1e-15  # a final basic level at most this is the round-off of 0


@dataclass
class LPResult:
    x: np.ndarray
    objective: float
    basis: np.ndarray
    iterations: int


def _simplex_phase(A, b, c, basis, *, tol, max_iter):
    m, n = A.shape
    degenerate_streak = 0
    bland = False
    xB = None
    for it in range(max_iter):
        lu = lu_factor(A[:, basis])
        xB = lu_solve(lu, b)
        y = lu_solve(lu, c[basis], trans=1)
        reduced = c - y @ A
        reduced[basis] = 0.0
        if bland:
            candidates = np.flatnonzero(reduced < -tol)
            if candidates.size == 0:
                return basis, xB, it
            j = int(candidates[0])
        else:
            j = int(np.argmin(reduced))
            if reduced[j] >= -tol:
                return basis, xB, it
        d = lu_solve(lu, A[:, j])
        # Relative to the column's largest entry: an absolute test pivoted
        # on round-off entries near 1e-11 of columns reaching 1e5.
        pos = d > PIVOT_TOL * max(1.0, float(np.abs(d).max()))
        if not pos.any():
            raise NumericalFailure("LP is unbounded below")
        ratios = np.clip(xB[pos], 0.0, None) / d[pos]
        theta = ratios.min()
        tied = np.flatnonzero(pos)[ratios <= theta + 1e-15]
        leave = int(tied[np.argmin(basis[tied])])
        basis[leave] = j
        if theta <= 1e-13:
            degenerate_streak += 1
            if degenerate_streak > 3 * (m + 1):
                bland = True
        else:
            degenerate_streak = 0
            bland = False
    raise NumericalFailure("simplex pivot cap exceeded")


def solve_lp(
    c,
    A,
    b,
    *,
    tol: float = REDUCED_COST_TOL,
    max_iter: int = 200_000,
) -> LPResult:
    """Solve min c.x, A x = b, x >= 0 to a basic optimal solution.

    Raises:
        NumericalFailure: infeasible, unbounded, or pivot cap exceeded.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).ravel()
    c = np.asarray(c, dtype=float).ravel()
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n:
        raise NumericalFailure("LP dimensions are inconsistent")

    flip = b < 0
    A = A.copy()
    b = b.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Phase 1: artificial basis.
    A1 = np.hstack([A, np.eye(m)])
    c1 = np.concatenate([np.zeros(n), np.ones(m)])
    basis = np.arange(n, n + m)
    basis, xB, it1 = _simplex_phase(A1, b, c1, basis, tol=tol, max_iter=max_iter)
    if float(c1[basis] @ xB) > FEAS_TOL:
        raise NumericalFailure("LP is infeasible")

    # Pivot remaining zero-level artificials out; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] < n:
            continue
        lu = lu_factor(A1[:, basis])
        w = lu_solve(lu, np.eye(m)[:, r], trans=1)
        row = w @ A
        row[basis[basis < n]] = 0.0
        pivots = np.flatnonzero(np.abs(row) > PIVOT_TOL)
        if pivots.size:
            basis[r] = int(pivots[0])
        else:
            keep[r] = False
    if not keep.all():
        rows = np.flatnonzero(keep)
        A = A[rows]
        b = b[rows]
        basis = basis[keep]
    if np.any(basis >= n):
        raise NumericalFailure("artificial variable stuck in the basis")

    basis, xB, it2 = _simplex_phase(A, b, c, basis, tol=tol, max_iter=max_iter)
    x = np.zeros(n)
    x[basis] = np.where(xB > LEVEL_CUT, xB, 0.0)
    return LPResult(x=x, objective=float(c @ x), basis=basis, iterations=it1 + it2)
