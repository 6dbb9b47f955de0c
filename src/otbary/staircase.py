"""The north-west-corner coupling of sorted marginals and its staircase.

:func:`_comonotone_entries` is the one owner of the common refinement of
cumulative weights: each interval between consecutive breakpoints of the
members' cumulative weights carries one entry, at the index tuple of the
members' quantiles on it.  On the line with a convex cost in x - y this
coupling is optimal: for two marginals the cost matrix of sorted atoms is
Monge (Hoffman 1963), and for J marginals at p = 2 the Fréchet cost is
submodular (Carlier, J. Convex Anal. 2003).  On any space it is a feasible
coupling.

:func:`_lattice_path` joins those entries into a staircase, a monotone
lattice path from (0, ..., 0) to (n_1 - 1, ..., n_J - 1) that advances one
coordinate per step.  Its sum_j n_j - J + 1 cells are a basis of the
transportation polytope; for J = 2 it is a spanning tree of the bipartite
row/column graph, so its duals follow along the path.
"""

from __future__ import annotations

import numpy as np

MASS_CUT = 1e-15


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


def _lattice_path(targets: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Cells of the lattice path from (0, ..., 0) to ``shape - 1`` through
    the increasing tuples ``targets``: toward each target (and then the far
    corner) it advances coordinate 0 first, then 1, and so on, one step at
    a time, so a gap where the targets advance several coordinates at once
    is filled with extra cells.

    The step that takes coordinate j to value v belongs to the first target
    whose j-th index reaches v; sorting the steps by (target, coordinate)
    lays them out in path order.
    """
    J = len(shape)
    keys, coords = [], []
    for j, n in enumerate(shape):
        target = np.searchsorted(targets[:, j], np.arange(1, n), side="left")
        keys.append(target * J + j)
        coords.append(np.full(n - 1, j))
    order = np.argsort(np.concatenate(keys), kind="stable")
    steps = np.zeros((order.size + 1, J), dtype=np.intp)
    steps[np.arange(1, order.size + 1), np.concatenate(coords)[order]] = 1
    return np.cumsum(steps, axis=0)


def _staircase(measures) -> np.ndarray:
    # The north-west-corner coupling's tuples joined into a lattice path;
    # masses cut at MASS_CUT leave zero-mass steps.  Its cells are a
    # feasible basis of the multi-marginal transportation polytope.
    idx, _ = _comonotone_entries(measures)
    return _lattice_path(idx, tuple(m.n_atoms for m in measures))
