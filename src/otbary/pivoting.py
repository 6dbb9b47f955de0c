"""The primal simplex pivot loop shared by the library's two LP setups.

The coupling LP (:func:`otbary.staircase.coupling_simplex`: the
two-marginal transportation LP at J = 2 and the multi-marginal LP) and the
fixed-support joint LP (:mod:`otbary.barycenter`) are structured LPs
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
- The loop keeps the m x m basis matrix B and, between factorizations,
  the product form of its inverse (Dantzig & Orchard-Hays 1954):
  B^-1 = B_0^-1 - W^T Q, where B_0^-1 is the inverse at the last
  factorization and each of the j pivots since then appended one row to W
  and one to Q.  A pivot on row l with d = B^-1 a appends
  w = (d - e_l) / d_l and q = row l of B^-1, O(m j), where an explicit
  inverse takes a rank-one O(m^2) update; d itself is one matvec with
  B_0^-1 stacked over Q plus an O(m j) correction.  The same q moves the
  duals, y <- y + (r_k / d_l) q, which prices the entering column at 0,
  and the basic values move in O(m): xB <- max(xB - theta d, 0) with
  theta at the pivot row.  W and Q grow with the pivots since the
  factorization.
- B is factored afresh every ``REFACTOR_EVERY`` pivots, times m // 128
  from m = 256 on (about m / 2): a factorization costs O(m^3) and the
  product form O(m j) per pivot, so the period grows with m.  One LU solve of B against
  [b | I] gives the basic values and B_0^-1, and c_B B_0^-1 the duals.
- The loop stops only on a pricing pass with no entering variable whose
  duals come from fresh factors, so what it returns carries no update
  drift.  When updated duals price nothing in, it first solves
  B^T y = c_B alone, and factors for B_0^-1 only if those duals price a
  variable in.  The basic values it returns come from an LU solve on the
  final basis, and levels of at most ``MASS_CUT`` (1e-15, the round-off of
  a zero level in that solve) come out as exactly 0: the LPs' plans,
  couplings and objectives take them as they are.
- The loop holds about (4m + 2 min(period, m)) m floats (B, [b | I],
  B_0^-1 and the product form), and the setup a few floats per variable
  (costs, reduced costs), so each LP setup calls :func:`check_rows` with
  its rows and variables before it builds its costs: past ``MAX_ROWS``
  rows (0.67 GB of arrays at 4 096), or past the cells of the largest
  two-marginal LP within that many rows, it raises
  ``ProductSizeExceeded`` instead of exhausting memory.

The loop runs on numpy alone.  A singular factorization (numpy's
``LinAlgError``) raises ``NumericalFailure("singular basis")``.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure, ProductSizeExceeded

PIVOT_TOL = 1e-11
REDUCED_COST_TOL = 1e-9
DEGENERATE_STEP = 1e-13
MAX_PIVOTS = 200_000
REFACTOR_EVERY = 64
PERTURBATION = 1e-7  # scale of the right-hand side's perturbation, of max b
PERTURBATION_SEED = 20150612
LEVEL_TOL = 1e-13  # least true basic level that counts as feasible
MASS_CUT = 1e-15  # basic levels at most this are round-off of 0
MAX_ROWS = 4096  # rows of the largest LP the loop takes on

# The perturbation's r, drawn once and regrown only for a larger m: the
# first m values of a longer draw from the same seed are the draw of m.
_draws = np.empty(0)


def _perturbation_draws(m):
    global _draws
    if _draws.shape[0] < m:
        _draws = np.random.Generator(np.random.PCG64(PERTURBATION_SEED)).uniform(0.5, 1.0, m)
    return _draws[:m]


def check_rows(m, n):
    """Raise ``ProductSizeExceeded`` for an LP of more than ``MAX_ROWS``
    rows, whose pivot loop would not fit in memory, or of more variables
    than the largest two-marginal LP within ``MAX_ROWS`` rows has cells
    (n_1 + n_2 - 1 rows bound n_1 n_2 by 2 048 x 2 049 at 4 096), whose
    costs and reduced costs the setup holds as dense arrays."""
    if m > MAX_ROWS:
        raise ProductSizeExceeded(f"LP of {m} rows exceeds the bound of {MAX_ROWS} rows")
    most = (MAX_ROWS + 1) // 2 * ((MAX_ROWS + 2) // 2)
    if n > most:
        raise ProductSizeExceeded(f"LP of {n} variables exceeds the bound of {most} variables")


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
    itself, with B_0 built again from ``column``, and the pivot count covers
    both runs.

    Returns the optimal basis, its values (those at most ``MASS_CUT`` set
    to 0), the pivot count, the least reduced cost of the final pricing
    pass, with basic variables counted as 0, and the duals y of that pass,
    solved from fresh factors.

    Raises:
        NumericalFailure: singular basis, no pivot row, or pivot cap hit.
    """
    start = np.array(basis, dtype=np.intp)
    B = _basis_matrix(start, column)
    shifted = b + PERTURBATION * b.max() * (B @ _perturbation_draws(b.shape[0]))
    basis, pivots, min_reduced_cost, y = _pivot_loop(c, shifted, start.copy(), B, column, price)
    xB = _solve(B, b)
    if xB.min() < -LEVEL_TOL:
        B = _basis_matrix(start, column)
        basis, more, min_reduced_cost, y = _pivot_loop(c, b, start, B, column, price)
        pivots += more
        xB = _solve(B, b)
    return basis, np.where(xB > MASS_CUT, xB, 0.0), pivots, min_reduced_cost, y


def _basis_matrix(basis, column):
    # The columns of the basic variables, in a Fortran-order matrix whose
    # columns the loop replaces in place.
    B = np.empty((basis.shape[0], basis.shape[0]), order="F")
    for i, k in enumerate(basis.tolist()):
        B[:, i] = column(k)
    return B


def _solve(B, rhs):
    try:
        return np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError:
        # A basis is never singular, so this is lost accuracy.
        raise NumericalFailure("singular basis") from None


def _pivot_loop(c, b, basis, B, column, price):
    # The pivots from the basis whose columns B holds (both are updated in
    # place).  Returns the optimal basis, the pivot count, the least reduced
    # cost of the final pricing pass and its duals.
    m = b.shape[0]
    period = REFACTOR_EVERY * max(1, m // 128)
    rhs = np.concatenate([b[:, None], np.eye(m)], axis=1)
    # B^-1 = B_0^-1 - W^T Q: M holds B_0^-1 over the rows q_1..q_j of Q, so
    # one matvec gives both B_0^-1 a and Q a; W holds the rows w_1..w_j.
    # Room for m updates at first; both grow if the period is longer.
    cap = min(period, m)
    M = np.empty((m + cap, m))
    W = np.empty((cap, m))

    def factor():
        # One LU solve for the basic values and B_0^-1.
        X = _solve(B, rhs)
        M[:m] = X[:, 1:]
        return np.maximum(X[:, 0], 0.0)

    xB = factor()
    y = c[basis].dot(M[:m])
    fresh = True  # y comes from a factorization of the current basis
    j = 0  # pivots since B_0^-1
    ratios = np.empty(m)
    pivots = 0
    degenerate_streak = 0
    bland = False
    while True:
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
            if fresh:
                break
            # Updated duals price nothing in.  Check with fresh ones, which
            # need no inverse, since this pass is most likely the last.
            y, fresh = _solve(B.T, c[basis]), True
            continue
        if fresh and j:
            xB, j = factor(), 0
        if pivots == MAX_PIVOTS:
            raise NumericalFailure("simplex pivot cap exceeded")
        a = column(k)
        t = M[: m + j].dot(a)
        d = t[:m]
        if j:
            d -= t[m:].dot(W[:j])
        ratios.fill(np.inf)
        size = np.abs(d)
        np.divide(xB, d, out=ratios, where=d > PIVOT_TOL * max(1.0, size[size.argmax()]))
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
        if j + 1 == period:
            xB, j, fresh = factor(), 0, True
            y = c[basis].dot(M[:m])
        else:
            # Product-form update: B^-1 <- B^-1 - w q with q the old row
            # `leave` of B^-1 and w = (d - e_leave) / d_leave.  The same q
            # moves the duals: y + (r_k / d_leave) q prices column k at 0.
            if j == W.shape[0]:
                grow = min(2 * j, period) - j
                M = np.concatenate([M, np.empty((grow, m))])
                W = np.concatenate([W, np.empty((grow, m))])
            q = M[m + j]
            if j:
                np.subtract(M[leave], W[:j, leave].dot(M[m : m + j]), out=q)
            else:
                q[:] = M[leave]
            pivot = d[leave]
            y += q * (flat[k] / pivot)
            w = W[j]
            np.divide(d, pivot, out=w)
            w[leave] -= 1.0 / pivot
            j += 1
            fresh = False
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
    return basis, pivots, float(flat.min()), y
