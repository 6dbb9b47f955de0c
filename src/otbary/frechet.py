"""Weighted Fréchet means of point sets in the ground space.

The map implemented here is the deterministic point-level barycenter used by
the multi-marginal solver: it picks one minimizer of
x -> sum_j lam_j d(x, x_j)^p with a fixed tie-breaking rule
(lexicographically smallest candidate among equal objectives), so identical
inputs always give identical outputs.

Euclidean p=2 uses the closed form; p=1 uses Weiszfeld iteration with the
standard anchor (data-point) handling; other p use gradient descent with
Armijo backtracking.  Metric-matrix spaces minimize over the listed points
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .spaces import MetricMatrix, Space, as_atoms

STEP_TOL = 1e-10
TIE_TOL = 1e-12
MAX_ITER = 100_000


@dataclass
class FrechetResult:
    point: np.ndarray | int
    objective: float
    iterations: int
    converged: bool


def _check(space, pts, lam):
    pts = as_atoms(space, pts)
    lam = np.asarray(lam, dtype=float).ravel()
    if lam.shape[0] != pts.shape[0] or lam.shape[0] == 0:
        raise DimensionMismatch(
            f"{pts.shape[0]} points with {lam.shape[0]} weights"
        )
    return pts, lam


def frechet_objective(space: Space, p: float, pts, lam, x) -> float:
    """sum_j lam_j d(x, pts_j)^p."""
    pts, lam = _check(space, pts, lam)
    if isinstance(space, MetricMatrix):
        d = space.dist[pts, int(x)]
    else:
        x = np.asarray(x, dtype=float)
        if x.shape != (space.dim,):
            raise DimensionMismatch(f"query point has shape {x.shape}")
        d = np.linalg.norm(pts - x[None, :], axis=1)
    return float(np.dot(lam, d**p))


def _weiszfeld(pts, lam, tol, max_iter):
    # Geometric median (p=1) with Vardi-Zhang anchor handling.
    x = lam @ pts
    for it in range(1, max_iter + 1):
        d = np.linalg.norm(pts - x[None, :], axis=1)
        on = d <= 1e-14
        if on.any():
            k = int(np.argmax(on))
            off = ~on
            if not off.any():
                return x, it, True
            r_vec = ((lam[off] / d[off])[:, None] * (pts[off] - x[None, :])).sum(axis=0)
            r = np.linalg.norm(r_vec)
            anchor_weight = lam[on].sum()
            if r <= anchor_weight + 1e-15:
                return x, it, True  # subgradient condition: anchor is optimal
            denom = (lam[off] / d[off]).sum()
            step = (r - anchor_weight) / denom
            x_new = x + step * (r_vec / r)
        else:
            w = lam / d
            x_new = (w @ pts) / w.sum()
        if np.linalg.norm(x_new - x) <= tol:
            return x_new, it, True
        x = x_new
    return x, max_iter, False


def _gradient_descent(pts, lam, p, tol, max_iter):
    # Smooth for p > 1; gradient terms vanish at coincident points for p >= 2
    # and are skipped (subgradient 0) for 1 < p < 2.
    x = lam @ pts

    def objective(y):
        return float(np.dot(lam, np.linalg.norm(pts - y[None, :], axis=1) ** p))

    def gradient(y):
        d = np.linalg.norm(pts - y[None, :], axis=1)
        off = d > 1e-14
        g = np.zeros_like(y)
        if off.any():
            g = (p * lam[off] * d[off] ** (p - 2)) @ (y[None, :] - pts[off])
        return g

    f = objective(x)
    for it in range(1, max_iter + 1):
        g = gradient(x)
        gnorm2 = float(g @ g)
        if np.sqrt(gnorm2) <= tol:
            return x, it, True
        step = 1.0
        while step > 1e-18:
            x_new = x - step * g
            f_new = objective(x_new)
            # Armijo with strict decrease: near the minimum a tiny step can
            # pass Armijo with f_new == f, and accepting it lets x cycle.
            if f_new < f and f_new <= f - 1e-4 * step * gnorm2:
                break
            # Within ~1e-9 of the minimizer f is flat to the last bit.  There
            # the objective's convexity lets a directional derivative that is
            # still negative at x_new certify the descent instead.
            if f_new == f and gradient(x_new) @ g > 0:
                break
            step *= 0.5
        else:
            return x, it, True  # no descent possible at machine precision
        if np.linalg.norm(x_new - x) <= tol:
            return x_new, it, True
        x, f = x_new, f_new
    return x, max_iter, False


def frechet_mean(
    space: Space,
    p: float,
    pts,
    lam,
    *,
    tol: float = STEP_TOL,
    max_iter: int = MAX_ITER,
) -> FrechetResult:
    """One minimizer of x -> sum_j lam_j d(x, pts_j)^p, deterministically.

    Metric-matrix spaces search the listed points exhaustively and break
    objective ties (within 1e-12) toward the smallest label.  A hit of the
    iteration cap returns the best iterate with ``converged=False``.
    """
    pts, lam = _check(space, pts, lam)
    if p < 1:
        raise DimensionMismatch(f"order p must be >= 1, got {p}")
    if isinstance(space, MetricMatrix):
        objs = (lam[None, :] * space.dist[:, pts] ** p).sum(axis=1)
        best = float(objs.min())
        idx = int(np.flatnonzero(objs <= best + TIE_TOL)[0])
        return FrechetResult(point=idx, objective=float(objs[idx]), iterations=0, converged=True)

    if pts.shape[0] == 1:
        x = pts[0].copy()
        return FrechetResult(x, 0.0, 0, True)
    if p == 2:
        x = lam @ pts
        return FrechetResult(
            x, frechet_objective(space, p, pts, lam, x), 0, True
        )
    if p == 1:
        x, iters, ok = _weiszfeld(pts, lam, tol, max_iter)
    else:
        x, iters, ok = _gradient_descent(pts, lam, p, tol, max_iter)
    return FrechetResult(x, frechet_objective(space, p, pts, lam, x), iters, ok)
