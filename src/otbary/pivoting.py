"""The primal simplex pivot loop shared by the library's three exact LPs.

The two-marginal transportation LP (:mod:`otbary.transport`), the
multi-marginal tensor simplex (:mod:`otbary.multimarginal`) and the
fixed-support joint LP (:mod:`otbary.barycenter`) are all structured LPs
min c.x, A x = b, x >= 0 whose constraint matrix is never built.  Each
hands :func:`primal_simplex` the costs of its variables, a feasible,
nonsingular start basis and two callbacks: ``price(y)``, the reduced costs
c - A^T y of every variable for the duals y, and ``column(k)``, the
constraint column of variable k.  Everything else lives here:

- The right-hand side is perturbed first (see :func:`primal_simplex`):
  on degenerate inputs, such as members with uniform weights, an
  unperturbed loop ties in the ratio test on most pivots and stalls.
- Dantzig pricing, switched to Bland's rule after 3(m + 1) degenerate pivots
  in a row (and back after the first nondegenerate one); a variable enters
  when its reduced cost is below ``-REDUCED_COST_TOL``.
- The ratio test pivots only on entries above ``PIVOT_TOL`` times the
  entering column's largest entry (at least 1): entries of B^-1 a reach 1e5
  on J = 3 tensor bases, and a pivot on a round-off entry near 1e-11 once
  made the next basis exactly singular.  The ratios go into an array of
  inf, so theta = inf means no pivot row.  Ratio ties (within 1e-15 of
  theta) leave the basic variable of smallest index; they are searched only
  when there are two or more.
- The loop keeps the m x m basis matrix B and an explicit inverse.  A pivot
  updates the inverse by one rank-one BLAS ``ger``, O(m^2), where a new
  factorization would cost O(m^3), and updates the basic values and the
  duals in O(m): xB <- max(xB - theta d, 0) with theta at the pivot row,
  and y <- y + r_k (new pivot row of B^-1), which prices the entering
  column at 0.  Every ``REFACTOR_EVERY`` pivots B is factored afresh by
  LAPACK's getrf; that pass takes its duals and basic values from
  triangular solves with the factors (getrs), and the next pivot inverts
  them (getri).  The loop stops only on a pricing pass with no entering
  variable that used fresh factors, refactoring first if it must, so what
  it returns carries no update drift, and a zero-level basic variable
  comes out as 0 rather than as the round-off of a product with the
  inverse.

LAPACK and BLAS are called directly: at these sizes the checks of the
``scipy.linalg`` wrappers cost more than the work.  The product d = B^-1 a
is scipy's ``gemv`` rather than numpy's ``@`` as well: numpy and scipy may
each bring their own OpenBLAS, and with two BLAS threads the two thread
pools contended, so a fixed-support LP with 888 rows took 36 s instead of
10 s on a 2-vCPU host.  A zero pivot in getrf (where ``lu_factor`` would
warn) raises ``NumericalFailure("singular basis")``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import NumericalFailure

PIVOT_TOL = 1e-11
REDUCED_COST_TOL = 1e-9
DEGENERATE_STEP = 1e-13
MAX_PIVOTS = 200_000
REFACTOR_EVERY = 64
PERTURBATION = 1e-7  # scale of the right-hand side's perturbation, of max b
PERTURBATION_SEED = 20150612
LEVEL_TOL = 1e-13  # least true basic level that counts as feasible

# The perturbation's r, drawn once and regrown only for a larger m: the
# first m values of a longer draw from the same seed are the draw of m.
_draws = np.empty(0)


def _perturbation_draws(m):
    global _draws
    if _draws.shape[0] < m:
        _draws = np.random.Generator(np.random.PCG64(PERTURBATION_SEED)).uniform(0.5, 1.0, m)
    return _draws[:m]


def primal_simplex(c, b, basis, column, price):
    """Solve min c.x, A x = b, x >= 0 from a feasible start basis.

    ``c`` holds the cost of every variable (flat ids), ``b`` the m
    right-hand sides and ``basis`` the m start variables; ``column(k)`` is
    the column of variable k as a length-m array and ``price(y)`` the flat
    reduced costs of every variable for duals y (a buffer the loop may
    overwrite).

    The loop first solves the perturbed LP with right-hand side
    b + delta B_0 r (B_0 the start basis, delta = ``PERTURBATION`` max b,
    r in [0.5, 1]^m from a fixed-seed PCG64), whose start levels are all
    positive, so ratio ties are rare and degenerate pivots few.  Its
    optimal basis is dual feasible for the true LP too; where the true
    levels, from fresh factors, are all at least ``-LEVEL_TOL`` it is
    optimal and is returned.  Otherwise the loop runs again from B_0 on b
    itself, and the pivot count covers both runs.

    Returns the optimal basis, its values (clipped at 0), the pivot count,
    the least reduced cost of the final pricing pass, with basic variables
    counted as 0, and the duals y of that pass, solved from fresh factors.

    Raises:
        NumericalFailure: singular basis, no pivot row, or pivot cap hit.
    """
    start = np.array(basis, dtype=np.intp)
    m = b.shape[0]
    B0 = np.empty((m, m), order="F")
    for i, k in enumerate(start):
        B0[:, i] = column(k)
    shifted = b + PERTURBATION * b.max() * (B0 @ _perturbation_draws(m))
    basis, lu, piv, pivots, min_reduced_cost, y = _pivot_loop(
        c, shifted, start.copy(), B0.copy(order="F"), column, price
    )
    (getrs,) = get_lapack_funcs(("getrs",), (B0,))
    xB = getrs(lu, piv, b)[0]
    if xB.min() < -LEVEL_TOL:
        basis, lu, piv, more, min_reduced_cost, y = _pivot_loop(c, b, start, B0, column, price)
        pivots += more
        xB = getrs(lu, piv, b)[0]
    return basis, np.maximum(xB, 0.0), pivots, min_reduced_cost, y


def _pivot_loop(c, b, basis, B, column, price):
    # The pivots from the basis whose columns B holds (both are updated in
    # place).  Returns the optimal basis, fresh LU factors of it, the pivot
    # count, the least reduced cost of the final pricing pass and its duals.
    m = b.shape[0]
    getrf, getrs, getri = get_lapack_funcs(("getrf", "getrs", "getri"), (B,))
    gemv, ger = get_blas_funcs(("gemv", "ger"), (B,))

    def factor():
        lu, piv, info = getrf(B)
        if info > 0:
            # A basis is never singular, so this is lost accuracy.
            raise NumericalFailure("singular basis")
        return lu, piv

    lu, piv = factor()
    B_inv = None  # built by getri at the first pivot after a factorization
    ratios = np.empty(m)
    since_refactor = 0
    pivots = 0
    degenerate_streak = 0
    bland = False
    while True:
        if since_refactor == 0:
            # Fresh values, from triangular solves with the factors.
            xB = np.maximum(getrs(lu, piv, b)[0], 0.0)
            y = getrs(lu, piv, c[basis], trans=1)[0]
        flat = price(y)
        flat[basis] = 0.0
        if bland:
            below = flat < -REDUCED_COST_TOL
            k = int(below.argmax())
            optimal = not below[k]
        else:
            k = int(flat.argmin())
            optimal = flat[k] >= -REDUCED_COST_TOL
        if optimal:
            if since_refactor == 0:
                break
            (lu, piv), since_refactor = factor(), 0
            continue
        if pivots == MAX_PIVOTS:
            raise NumericalFailure("simplex pivot cap exceeded")
        if since_refactor == 0:
            B_inv, info = getri(lu, piv)
            if info != 0:
                raise NumericalFailure("singular basis")
        a = column(k)
        d = gemv(1.0, B_inv, a)
        ratios.fill(np.inf)
        np.divide(xB, d, out=ratios, where=d > PIVOT_TOL * max(1.0, np.abs(d).max()))
        leave = int(ratios.argmin())
        theta = ratios[leave]
        if theta == np.inf:
            # The LPs here are bounded, so this is lost accuracy, not a ray.
            raise NumericalFailure("entering column has no pivot row")
        tied = ratios <= theta + 1e-15
        if np.count_nonzero(tied) > 1:
            tied = np.flatnonzero(tied)
            leave = int(tied[np.argmin(basis[tied])])
        basis[leave] = k
        B[:, leave] = a
        pivots += 1
        since_refactor += 1
        if since_refactor == REFACTOR_EVERY:
            (lu, piv), since_refactor = factor(), 0
        else:
            # Eta update: row `leave` becomes row / d[leave], and every
            # other row i loses d[i] times that new row.  The new row also
            # moves the duals: y + r_k row prices column k at 0.
            row = B_inv[leave] / d[leave]
            B_inv = ger(-1.0, d, row, a=B_inv, overwrite_a=1)
            B_inv[leave] = row
            y += flat[k] * row
            xB -= theta * d
            xB[leave] = theta
            np.maximum(xB, 0.0, out=xB)
        if theta <= DEGENERATE_STEP:
            degenerate_streak += 1
            if degenerate_streak > 3 * (m + 1):
                bland = True
        else:
            degenerate_streak = 0
            bland = False
    return basis, lu, piv, pivots, float(flat.min()), y
