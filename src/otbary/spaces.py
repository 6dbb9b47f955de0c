"""Ground spaces: Euclidean R^d and explicit finite metric matrices.

Points in a :class:`Euclidean` space are real coordinate vectors; points in a
:class:`MetricMatrix` space are integer labels into the matrix.  A metric
matrix is validated at construction (zero diagonal, symmetry, triangle
inequality over every triple).

Every choice that depends on the space's type, but the Fréchet kernels of
:mod:`otbary.frechet`, is made here: atom coercion, distances (all pairs or
row by row), the line test of the staircase routes (:func:`is_line`) and the
JSON form.  The routes ask these functions instead of testing types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

TRIANGLE_TOL = 1e-9
TRIANGLE_BLOCK_ENTRIES = 2**18  # (rows, n, n) sums per triangle-check block, 2 MiB


@dataclass(frozen=True)
class Euclidean:
    """d-dimensional Euclidean space."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"Euclidean dim must be >= 1, got {self.dim}")


class MetricMatrix:
    """Finite metric space given by an explicit distance matrix.

    Distances and barycenters are restricted to the listed points; no
    geodesic interpolation is available.
    """

    def __init__(self, dist, labels=None):
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise DimensionMismatch(f"metric matrix must be square, got {dist.shape}")
        if not np.all(np.isfinite(dist)):
            raise DimensionMismatch("metric matrix has non-finite entries")
        if np.any(dist < 0):
            raise DimensionMismatch("metric matrix has negative entries")
        if np.any(np.abs(np.diag(dist)) > TRIANGLE_TOL):
            raise DimensionMismatch("metric matrix diagonal must be zero")
        if np.any(np.abs(dist - dist.T) > TRIANGLE_TOL):
            raise DimensionMismatch("metric matrix must be symmetric")
        # d(i,j) <= min_k d(i,k) + d(k,j) for every triple, a block of rows i
        # at a time so memory stays at TRIANGLE_BLOCK_ENTRIES floats
        rows = max(1, TRIANGLE_BLOCK_ENTRIES // max(1, dist.size))
        for lo in range(0, dist.shape[0], rows):
            block = dist[lo : lo + rows]
            through = (block[:, :, None] + dist[None, :, :]).min(axis=1)
            if np.any(block > through + TRIANGLE_TOL):
                raise DimensionMismatch("metric matrix violates the triangle inequality")
        self.dist = dist
        self.labels = list(labels) if labels is not None else list(range(dist.shape[0]))
        if len(self.labels) != dist.shape[0]:
            raise DimensionMismatch("label count does not match matrix size")

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, MetricMatrix)
            and self.dist.shape == other.dist.shape
            and np.array_equal(self.dist, other.dist)
            and self.labels == other.labels
        )

    def __repr__(self):
        return f"MetricMatrix(n={self.n_points})"


Space = Euclidean | MetricMatrix


def check_order(p: float) -> None:
    """Raise DimensionMismatch unless the order p of a distance is a finite
    number >= 1."""
    if not 1 <= p < math.inf:  # NaN fails here
        raise DimensionMismatch(f"order p must be >= 1 and finite, got {p}")


def as_atoms(space: Space, atoms) -> np.ndarray:
    """Coerce an array of points: (n, d) floats or (n,) integer labels."""
    if isinstance(space, Euclidean):
        a = np.asarray(atoms, dtype=float)
        if a.ndim == 1:
            if space.dim != 1:
                raise DimensionMismatch("flat atom list only valid in dimension 1")
            a = a[:, None]
        if a.ndim != 2 or a.shape[1] != space.dim:
            raise DimensionMismatch(
                f"atoms have shape {a.shape}, expected (n, {space.dim})"
            )
        if not np.isfinite(a).all():
            raise DimensionMismatch("atoms have non-finite coordinates")
        return a
    a = np.asarray(atoms)
    if a.ndim != 1:
        raise DimensionMismatch("metric-matrix atoms must be a flat label list")
    a = a.astype(np.intp)
    if a.size and (a.min() < 0 or a.max() >= space.n_points):
        raise DimensionMismatch("atom label out of range")
    return a


def pairwise_distances(space: Space, xs, ys) -> np.ndarray:
    """Matrix of distances between two atom arrays."""
    xs = as_atoms(space, xs)
    ys = as_atoms(space, ys)
    if isinstance(space, Euclidean):
        diff = xs[:, None, :] - ys[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return space.dist[np.ix_(xs, ys)]


def paired_distances(space: Space, xs, ys) -> np.ndarray:
    """Distances d(xs[k], ys[k]) of two coerced atom arrays, row by row."""
    if isinstance(space, MetricMatrix):
        return space.dist[xs, ys]
    diff = xs - ys
    return np.sqrt((diff * diff).sum(axis=1))


def is_line(space: Space) -> bool:
    """Whether ``space`` is the real line, ``Euclidean(1)``."""
    return isinstance(space, Euclidean) and space.dim == 1


def space_to_dict(space: Space) -> dict:
    if isinstance(space, Euclidean):
        return {"type": "euclidean", "dim": space.dim}
    return {"type": "metric_matrix", "dist": space.dist.tolist(), "labels": space.labels}


def space_from_dict(d: dict) -> Space:
    kind = d.get("type")
    if kind == "euclidean":
        return Euclidean(int(d["dim"]))
    if kind == "metric_matrix":
        return MetricMatrix(d["dist"], d.get("labels"))
    raise DimensionMismatch(f"unknown space type {kind!r}")
