"""The north-west-corner coupling of sorted marginals, its staircase, and
the one coupling LP, all on the members' weight vectors.

:func:`_refinement` is the one owner of the common refinement of cumulative
weights.  :func:`_comonotone_entries` reads the coupling off it: each
interval between consecutive breakpoints of the members' cumulative weights
carries one entry, at the index tuple of the members' quantiles on it.  On
the line with a convex cost in x - y this coupling is optimal: for two
marginals the cost matrix of sorted atoms is Monge (Hoffman 1963), and for
J marginals at p = 2 the Fréchet cost is submodular (Carlier, J. Convex
Anal. 2003).  On any space it is a feasible coupling.

:func:`_staircase` joins those entries into a staircase, a monotone
lattice path from (0, ..., 0) to (n_1 - 1, ..., n_J - 1) that advances one
coordinate per step.  Its sum_j n_j - J + 1 cells are a basis of the
transportation polytope; for J = 2 it is a spanning tree of the bipartite
row/column graph, so its duals follow along the path.  The two-marginal
line route of :func:`otbary.transport.wasserstein` needs both the entries
and the path, and reads them (:func:`_entries`, :func:`_path`) off one
refinement.

:func:`coupling_simplex` is the LP over the couplings of J >= 2 weight
vectors, for :func:`otbary.transport.solve_transport` (J = 2) and
:func:`otbary.multimarginal.solve_multimarginal`.  It starts at the
staircase and pivots in :func:`otbary.pivoting.primal_simplex`.

:func:`check_marginals` compares the marginals of every plan or coupling
the package returns with their weights, within ``MARGINAL_TOL``.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .errors import NumericalFailure
from .pivoting import MASS_CUT, primal_simplex

MARGINAL_TOL = 1e-9
_BOUNDS = np.array([0.0, 1.0, -np.inf])


def check_marginals(marginals, weights, what: str) -> None:
    """Raise NumericalFailure where a marginal misses its weights by more
    than ``MARGINAL_TOL``: one comparison per marginal."""
    for got, want in zip(marginals, weights):
        if not (abs(got - want) <= MARGINAL_TOL).all():  # NaN fails too
            raise NumericalFailure(f"{what} marginals miss the weights")


def _refinement(weights):
    # Each member's cumulative weights but the total; the points -inf, 0, 1
    # and those weights, member by member; and, sorted, the starts of the
    # intervals between the points of mass above MASS_CUT (repeated points
    # leave mass 0), the first from -inf, and every interval's mass with
    # the mask of those kept.
    inner = [np.add.accumulate(w[:-1]) for w in weights]
    points = np.concatenate([_BOUNDS, *inner])
    t = points.copy()
    t.sort()
    mass = t[1:] - t[:-1]
    keep = mass > MASS_CUT
    return inner, points, t[:-1][keep], mass, keep


def _comonotone_entries(weights) -> tuple[np.ndarray, np.ndarray]:
    return _entries(_refinement(weights))


def _entries(refinement):
    # One entry per interval of the common refinement of the cumulative
    # weights; member j sits at its quantile index on that interval.  Atoms
    # are sorted, so increasing intervals give increasing index tuples.
    inner, _, starts, mass, keep = refinement
    idx = np.stack([np.searchsorted(c, starts[1:], side="right") for c in inner], axis=1)
    return idx, mass[keep][1:]


def _staircase(weights) -> np.ndarray:
    """The staircase through the comonotone entries of ``weights``: toward
    each entry (and then the far corner) it advances coordinate 0 first,
    then 1, and so on, one step at a time, so a gap where the entries
    advance several coordinates at once is filled with extra cells.

    Returned as the path order of a list of its start cell (position 0) and
    every member's steps, member 1's at positions 1 to n_1 - 1, then member
    2's, and so on.  A step that passes a cumulative weight belongs to the
    first entry whose interval starts at or after it, and the start cell to
    the interval from -inf; a stable sort by interval gives path order.
    """
    return _path(_refinement(weights))


def _path(refinement):
    _, points, starts, _, _ = refinement
    return starts.searchsorted(points[2:]).argsort(kind="stable")


@lru_cache(maxsize=256)
def _layout(shape):
    # The coupling LP's index bookkeeping, which depends on the shape alone:
    # per member but the last, its C-order stride and the reduced row of
    # each index (the dropped row gives a spare slot m), the last member's
    # rows (stride 1), each member's slice of the full rows and the index
    # that broadcasts it, the full rows kept, and the flat offset of the
    # start cell and of every staircase step, member by member.
    J = len(shape)
    axes, views, kept, start, stride = [], [], [], 0, prod(shape)
    for j, n in enumerate(shape):
        stride //= n
        rows = list(range(len(kept), len(kept) + n - (j > 0)))
        kept.extend(range(start, start + len(rows)))
        axes.append((stride, rows))
        views.append((start, start + n, (None,) * j + (slice(None),) + (None,) * (J - 1 - j)))
        start += n
    for _, rows in axes[1:]:
        rows.append(len(kept))
    kept = np.array(kept)
    step = np.repeat([0] + [s for s, _ in axes], [1] + [n - 1 for n in shape])
    kept.flags.writeable = step.flags.writeable = False
    return axes[:-1], axes[-1][1], tuple(views), kept, step


def coupling_simplex(C, weights):
    """Primal simplex for min <C, x> over the couplings of ``weights``,
    whose totals agree but need not be 1.

    Row (j, i) says that the cells with i_j = i carry member j's weight i;
    the last row of every member j >= 2 is implied by the others and
    dropped, leaving m = sum_j n_j - J + 1 rows.  It starts at the
    staircase and prices every cell as C - (u_1 + ... + u_h) -
    (u_{h+1} + ... + u_J), h = ceil(J / 2), in one buffer: the two small
    outer sums come first, so a pass reads the tensor twice, not J times.
    An entering column is read off its cell's indices, found from the flat
    index by the strides; no constraint matrix is built.

    Returns the basis as flat C-order indices, its masses (round-off set to
    0 by the pivot loop), the pivot count, the least reduced cost of the
    last pricing pass and the duals of all sum_j n_j rows, member by
    member, 0 on dropped rows.

    Raises:
        NumericalFailure: singular basis, no pivot row, or pivot cap hit.
    """
    heads, last, views, kept, step = _layout(C.shape)
    m = kept.shape[0]
    b = np.concatenate([weights[0]] + [w[:-1] for w in weights[1:]])

    def column(k):
        a = np.zeros(m + 1)
        for stride, rows in heads:
            i, k = divmod(k, stride)
            a[rows[i]] = 1.0
        a[last[k]] = 1.0
        return a[:m]

    # u[j] is member j's block of the full system's duals, shaped to
    # broadcast along axis j.
    y = np.zeros(sum(C.shape))
    u = [y[lo:hi][index] for lo, hi, index in views]
    h = (len(u) + 1) // 2
    first, second = u[1:h], u[h + 1 :]
    reduced = np.empty(C.shape)
    flat = reduced.reshape(-1)

    def price(duals):
        y[kept] = duals
        np.subtract(C, sum(first, u[0]), out=reduced)
        np.subtract(reduced, sum(second, u[h]), out=reduced)
        return flat

    basis = step[_staircase(weights)].cumsum()
    basis, x, pivots, min_reduced_cost, duals = primal_simplex(C.ravel(), b, basis, column, price)
    y[kept] = duals
    return basis, x, pivots, min_reduced_cost, y
