"""Test-side helpers that the library does not need.

``measures_equal`` compares two canonical measures up to a tolerance, and
``frechet_objective`` evaluates sum_j lam_j d(x, pts_j)^p straight from the
space's coordinates or matrix, an oracle apart from the library's Fréchet
kernels.
"""

from __future__ import annotations

import numpy as np

from otbary import DiscreteMeasure, MetricMatrix


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
