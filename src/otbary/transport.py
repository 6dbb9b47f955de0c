"""Exact optimal transport between two discrete measures.

:func:`wasserstein` has two routes.  On the line (``Euclidean(1)``, any
p >= 1) the cost |x - y|^p of sorted atoms is a Monge matrix, so the
north-west-corner coupling is optimal with no pivot (Hoffman 1963).  It is
read off the common refinement of the two cumulative weights
(:mod:`otbary.staircase`, shared with the multi-marginal line route); the
cost is summed over its at most n + m - 1 cells and the duals follow along
the staircase basis in O(n + m), so no n x m cost matrix is built.  Every
other space builds the cost matrix and runs :func:`solve_transport`.

:func:`solve_transport` is a transportation simplex: north-west-corner start,
spanning-tree duals, Dantzig pivoting with a Bland fallback after a run of
degenerate pivots, deterministic tie-breaking throughout.  It returns a basic
optimal plan with nonnegative reduced costs certified at 1e-9.

:func:`wasserstein_1d` is the independent one-dimensional oracle: it
integrates the quantile-function gap over the common refinement of cumulative
weight breakpoints and is exact for discrete inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InfeasibleWeights,
    NumericalFailure,
    UnsupportedSpace,
)
from .measures import DiscreteMeasure
from .spaces import Euclidean, Space, pairwise_distances
from .staircase import _comonotone_entries, _lattice_path

FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9
MAX_COST_ENTRIES = 10**8


@dataclass
class TransportPlan:
    """Basic optimal coupling between two weight vectors, with duals ``u``,
    ``v`` (u_i + v_j = cost_ij on the basis) and the simplex's pivot count
    (0 on the line, where the start is optimal)."""

    plan: np.ndarray
    cost: float
    u: np.ndarray
    v: np.ndarray
    pivots: int = 0

    @property
    def support(self) -> list[tuple[int, int, float]]:
        ii, jj = np.nonzero(self.plan)
        return [(int(i), int(j), float(self.plan[i, j])) for i, j in zip(ii, jj)]


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    n, m = a.shape[0], b.shape[0]
    a = a.copy()
    b = b.copy()
    mass: dict[tuple[int, int], float] = {}
    i = j = 0
    while True:
        t = min(a[i], b[j])
        mass[(i, j)] = t
        a[i] -= t
        b[j] -= t
        if i == n - 1 and j == m - 1:
            break
        if i == n - 1:
            j += 1
        elif j == m - 1:
            i += 1
        elif a[i] <= 1e-15:
            i += 1
        else:
            j += 1
    return mass


def _tree_duals(C, basis, n, m):
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    row_adj: list[list[int]] = [[] for _ in range(n)]
    col_adj: list[list[int]] = [[] for _ in range(m)]
    for (i, j) in basis:
        row_adj[i].append(j)
        col_adj[j].append(i)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in row_adj[k]:
                if np.isnan(v[j]):
                    v[j] = C[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in col_adj[k]:
                if np.isnan(u[i]):
                    u[i] = C[i, k] - v[k]
                    stack.append(("r", i))
    if np.isnan(u).any() or np.isnan(v).any():
        raise NumericalFailure("basis graph is not a spanning tree")
    return u, v, row_adj, col_adj


def _find_cycle(entering, row_adj, col_adj, n, m):
    # Unique path in the spanning tree from row i0 back to column j0; the
    # cycle is that path closed by the entering cell.
    i0, j0 = entering
    parent: dict[tuple[str, int], tuple[str, int] | None] = {("r", i0): None}
    stack = [("r", i0)]
    while stack:
        node = stack.pop()
        kind, k = node
        neighbors = (
            [("c", j) for j in row_adj[k]] if kind == "r" else [("r", i) for i in col_adj[k]]
        )
        for nxt in neighbors:
            if nxt not in parent:
                parent[nxt] = node
                if nxt == ("c", j0):
                    stack = []
                    break
                stack.append(nxt)
    if ("c", j0) not in parent:
        raise NumericalFailure("entering cell closes no cycle")
    # Walk back: nodes alternate row/col; consecutive nodes define basis cells.
    path_nodes = [("c", j0)]
    while parent[path_nodes[-1]] is not None:
        path_nodes.append(parent[path_nodes[-1]])
    path_nodes.reverse()  # row i0 ... col j0
    cells = [entering]
    for a, b in zip(path_nodes, path_nodes[1:]):
        if a[0] == "r":
            cells.append((a[1], b[1]))
        else:
            cells.append((b[1], a[1]))
    return cells  # alternating signs, cells[0] is '+'


def solve_transport(
    cost,
    w_src,
    w_tgt,
    *,
    tol: float = OPTIMALITY_TOL,
    max_iter: int = 100_000,
) -> TransportPlan:
    """Solve the transportation LP min <cost, pi> with fixed marginals.

    Raises:
        InfeasibleWeights: marginal totals differ by more than 1e-9.
        NumericalFailure: pivot cap exceeded.
    """
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2:
        raise DimensionMismatch(f"cost must be a matrix, got shape {C.shape}")
    if not np.all(np.isfinite(C)) or np.any(C < 0):
        raise DimensionMismatch("cost entries must be finite and nonnegative")
    n, m = C.shape
    if n * m > MAX_COST_ENTRIES:
        raise DimensionMismatch(f"cost matrix too large: {n}x{m}")
    a = np.asarray(w_src, dtype=float).ravel()
    b = np.asarray(w_tgt, dtype=float).ravel()
    if a.shape[0] != n or b.shape[0] != m:
        raise DimensionMismatch("weight lengths do not match cost shape")
    if np.any(a < -1e-15) or np.any(b < -1e-15):
        raise InfeasibleWeights("negative marginal weight")
    a = np.clip(a, 0.0, None)
    b = np.clip(b, 0.0, None)
    if abs(a.sum() - b.sum()) > FEASIBILITY_TOL:
        raise InfeasibleWeights(
            f"marginal totals differ: {a.sum()!r} vs {b.sum()!r}"
        )
    b = b * (a.sum() / b.sum())

    mass = _northwest_corner(a, b)
    basis = list(mass.keys())
    degenerate_streak = 0
    bland = False
    for pivots in range(max_iter):
        u, v, row_adj, col_adj = _tree_duals(C, basis, n, m)
        reduced = C - u[:, None] - v[None, :]
        for (i, j) in basis:
            reduced[i, j] = 0.0
        if bland:
            cand = np.argwhere(reduced < -tol)
            if cand.size == 0:
                break
            entering = (int(cand[0, 0]), int(cand[0, 1]))
        else:
            flat = int(np.argmin(reduced))
            entering = (flat // m, flat % m)
            if reduced[entering] >= -tol:
                break
        cells = _find_cycle(entering, row_adj, col_adj, n, m)
        minus = cells[1::2]
        theta = min(mass[c] for c in minus)
        leaving = min(c for c in minus if mass[c] <= theta)
        for k, c in enumerate(cells):
            if k == 0:
                mass[c] = theta
            elif k % 2 == 1:
                mass[c] -= theta
            else:
                mass[c] += theta
        del mass[leaving]
        basis = list(mass.keys())
        if theta <= 1e-15:
            degenerate_streak += 1
            if degenerate_streak > 2 * (n + m):
                bland = True
        else:
            degenerate_streak = 0
            bland = False
    else:
        raise NumericalFailure("transportation simplex pivot cap exceeded")

    plan = np.zeros((n, m))
    for (i, j), t in mass.items():
        plan[i, j] = max(t, 0.0)
    return TransportPlan(plan=plan, cost=float((plan * C).sum()), u=u, v=v, pivots=pivots)


def _line_transport(p: float, mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    # North-west-corner coupling of the sorted atoms and the duals of its
    # staircase basis.  Along the path a row step i -> i + 1 at column j
    # gives u_{i+1} - u_i = c_k - c_{k-1} (c_k the cost of the k-th cell),
    # a column step the same for v; u_0 = 0, as in _tree_duals.
    x, y = mu.atoms[:, 0], nu.atoms[:, 0]
    idx, mass = _comonotone_entries([mu, nu])
    path = _lattice_path(idx, (mu.n_atoms, nu.n_atoms))
    c = np.abs(x[path[:, 0]] - y[path[:, 1]]) ** p
    gain = np.diff(c)
    row_step = np.diff(path[:, 0]) == 1
    u = np.concatenate([[0.0], np.cumsum(gain[row_step])])
    v = c[0] + np.concatenate([[0.0], np.cumsum(gain[~row_step])])
    plan = np.zeros((mu.n_atoms, nu.n_atoms))
    plan[idx[:, 0], idx[:, 1]] = mass
    cost = float(mass @ (np.abs(x[idx[:, 0]] - y[idx[:, 1]]) ** p))
    return TransportPlan(plan=plan, cost=cost, u=u, v=v)


def wasserstein(
    space: Space,
    p: float,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    *,
    tol: float = OPTIMALITY_TOL,
) -> tuple[float, TransportPlan]:
    """W_p distance and an optimal plan between two measures on ``space``.

    The plan is indexed by the measures' own atoms.  On the line the plan is
    the north-west-corner coupling, exact with no solver, so ``tol`` is not
    read there; elsewhere it is the simplex's reduced-cost tolerance.
    """
    if mu.space != space or nu.space != space:
        raise DimensionMismatch("measures do not live on the given space")
    if p < 1:
        raise DimensionMismatch(f"order p must be >= 1, got {p}")
    if isinstance(space, Euclidean) and space.dim == 1:
        result = _line_transport(p, mu, nu)
    else:
        C = pairwise_distances(space, mu.atoms, nu.atoms) ** p
        result = solve_transport(C, mu.weights, nu.weights, tol=tol)
    return max(result.cost, 0.0) ** (1.0 / p), result


def wasserstein_1d(p: float, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form W_p on the line via quantile functions; exact for
    discrete inputs.  Independent of the LP path."""
    if not (isinstance(mu.space, Euclidean) and mu.space.dim == 1):
        raise UnsupportedSpace("wasserstein_1d requires Euclidean dimension 1")
    if nu.space != mu.space:
        raise DimensionMismatch("measures live on different spaces")
    if p < 1:
        raise DimensionMismatch(f"order p must be >= 1, got {p}")
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
