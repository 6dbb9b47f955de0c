"""Discrete probability measures, ensembles, sampling and JSON round-trips.

A :class:`DiscreteMeasure` is a weighted atom list over a ground space.
Weights live on the probability simplex: a sum within 1e-9 of 1 is accepted
at construction and renormalized to machine precision; anything further off
is rejected.  Every measure is canonical from construction on: zero-weight
atoms dropped, the rest sorted lexicographically, and atoms within
``MERGE_TOL`` of a group's first atom merged into it.  The exact solvers
index their plans by these atoms.  Input already in that form (every
weight positive, every step to the next atom lexicographically positive
and longer than 3 ``MERGE_TOL``), such as the atoms an empirical sample
keeps of a canonical measure, is checked in O(n) and kept as it is;
anything else is sorted and merged.  Both go through the same
constructor and its checks.

The space's JSON form is :mod:`otbary.spaces`'s; the input check of
:func:`pushforward` is the one test of a space's type here.

All randomness uses numpy's PCG64 generator, so results are reproducible
from the integer seed alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeWeight,
    WeightSumOutOfTolerance,
)
from .spaces import MetricMatrix, Space, as_atoms, space_from_dict, space_to_dict

WEIGHT_SUM_TOL = 1e-9
MERGE_TOL = 1e-12


def _checked_weights(weights, count: int, what: str) -> np.ndarray:
    """Nonnegative weights summing to 1 within WEIGHT_SUM_TOL, as given."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape[0] != count:
        raise DimensionMismatch(f"{what}: {w.shape[0]} weights for {count} items")
    if w.size == 0:
        raise DimensionMismatch(f"{what}: empty weight vector")
    least = w.min()
    if least < -1e-15:
        raise NegativeWeight(f"{what}: negative weight {least:.3e}")
    w = np.maximum(w, 0.0)
    total = w.sum()
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumOutOfTolerance(
            f"{what}: weights sum to {total!r}, off by more than {WEIGHT_SUM_TOL}"
        )
    return w


def _renormalized(w: np.ndarray) -> np.ndarray:
    # renormalize only when off by more than 1e-12 so construction is a
    # bit-level fixed point after one pass
    total = w.sum()
    return w / total if abs(total - 1.0) > 1e-12 else w


def _group_starts(points: np.ndarray) -> np.ndarray:
    # A sorted point joins the current group when it is within MERGE_TOL of
    # the group's first point.  By the triangle inequality, with room for
    # rounding, a gap of 0 or over 3 * MERGE_TOL to the previous point
    # settles that alone; other gaps need the sequential rule.
    gap = np.abs(np.diff(points, axis=0)).max(axis=1)
    if np.all((gap == 0) | (gap > 3 * MERGE_TOL)):
        return np.flatnonzero(np.concatenate([[True], gap > 0]))
    starts = [0]
    for i in range(1, points.shape[0]):
        if np.max(np.abs(points[i] - points[starts[-1]])) > MERGE_TOL:
            starts.append(i)
    return np.asarray(starts)


def _is_canonical(points: np.ndarray, weights: np.ndarray) -> bool:
    # Whether the sort and merge of _canonical would return the atoms as
    # they are: every weight positive and every step to the next point
    # lexicographically positive and longer than 3 * MERGE_TOL, so that no
    # point joins the group of the one before (see _group_starts).  A first
    # coordinate that rises by more settles a step alone.
    step = points[1:] - points[:-1]
    if not (step[:, 0] > 3 * MERGE_TOL).all():
        lead = step[np.arange(step.shape[0]), (step != 0).argmax(axis=1)]
        if not ((lead > 0) & (np.abs(step).max(axis=1) > 3 * MERGE_TOL)).all():
            return False
    return bool(weights.min() > 0)


def _canonical(atoms: np.ndarray, weights: np.ndarray):
    """Drop zero weights, sort, merge duplicates, renormalize.

    Zero-weight atoms go first so that they cannot split a group; merging a
    canonical measure again changes nothing.  Exact ties are ordered by
    weight, group weights are summed left to right and the total is taken
    after sorting, so the result does not depend on the order of the input.
    Atoms already in that form, such as a sample's subset of a canonical
    measure's atoms, are only checked, in O(n), and copied.
    """
    points = atoms.reshape(atoms.shape[0], -1)  # metric-matrix labels as 1-D points
    if _is_canonical(points, weights):
        return atoms.copy(), _renormalized(weights)
    keep = weights > 0
    atoms, weights, points = atoms[keep], weights[keep], points[keep]
    order = np.lexsort((weights, *points.T[::-1]))
    atoms, weights = atoms[order], weights[order]
    starts = _group_starts(points[order])
    if starts.size == weights.size:  # no atom merges
        return atoms, _renormalized(weights)
    first = np.zeros(weights.size, dtype=bool)
    first[starts] = True
    # ufunc.at adds in index order, so each group is summed left to right
    # (np.add.reduceat would sum long groups pairwise)
    sums = np.zeros(starts.size)
    np.add.at(sums, np.cumsum(first) - 1, weights)
    return atoms[starts], _renormalized(sums)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on a ground space, stored in
    canonical form (see the module docstring)."""

    space: Space
    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = as_atoms(self.space, self.atoms)
        weights = _checked_weights(self.weights, atoms.shape[0], "measure weights")
        atoms, weights = _canonical(atoms, weights)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


def pushforward(m: DiscreteMeasure, mapping) -> DiscreteMeasure:
    """Image measure: atoms mapped pointwise, each keeping its weight, then
    put in canonical form (atoms the map sends together merge).

    ``mapping`` takes the (n, d) atom array and returns an array of the
    same shape (Euclidean spaces only).
    """
    if isinstance(m.space, MetricMatrix):
        raise DimensionMismatch("pushforward maps act on Euclidean atoms")
    new_atoms = np.asarray(mapping(m.atoms), dtype=float)
    if new_atoms.shape != m.atoms.shape:
        raise DimensionMismatch(
            f"map changed atom array shape {m.atoms.shape} -> {new_atoms.shape}"
        )
    return DiscreteMeasure(m.space, new_atoms, m.weights.copy())


def sample_empirical(m: DiscreteMeasure, n: int, seed: int) -> DiscreteMeasure:
    """Empirical measure of n i.i.d. draws from m.

    Draws are multinomial over the atoms; deterministic for a given seed.
    They are counted per atom of m, and each drawn atom carries weight
    count / n.  The drawn atoms keep m's order, so unless m has atoms
    within 3 ``MERGE_TOL`` of each other the sample is canonical as built
    and its construction only checks that.
    """
    if n < 1:
        raise DimensionMismatch(f"sample size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(m.n_atoms, size=n, p=m.weights)
    counts = np.bincount(idx, minlength=m.n_atoms)
    drawn = counts > 0
    return DiscreteMeasure(m.space, m.atoms[drawn], counts[drawn] / n)


@dataclass(frozen=True)
class MeasureEnsemble:
    """Finitely supported law on measure space: sum_j lambda_j delta_{mu_j}."""

    measures: list[DiscreteMeasure] = field(default_factory=list)
    lam: np.ndarray = None

    def __post_init__(self):
        if not self.measures:
            raise DimensionMismatch("ensemble needs at least one measure")
        lam = _checked_weights(self.lam, len(self.measures), "ensemble lambda")
        space = self.measures[0].space
        for m in self.measures[1:]:
            if m.space != space:
                raise DimensionMismatch("ensemble measures live on different spaces")
        object.__setattr__(self, "lam", _renormalized(lam))

    @property
    def space(self) -> Space:
        return self.measures[0].space

    @property
    def size(self) -> int:
        return len(self.measures)


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def measure_to_dict(m: DiscreteMeasure) -> dict:
    return {
        "space": space_to_dict(m.space),
        "atoms": m.atoms.tolist(),
        "weights": m.weights.tolist(),
    }


def measure_from_dict(d: dict) -> DiscreteMeasure:
    space = space_from_dict(d["space"])
    return DiscreteMeasure(space, d["atoms"], d["weights"])


def ensemble_to_dict(e: MeasureEnsemble) -> dict:
    return {
        "lambda": e.lam.tolist(),
        "measures": [measure_to_dict(m) for m in e.measures],
    }


def ensemble_from_dict(d: dict) -> MeasureEnsemble:
    return MeasureEnsemble([measure_from_dict(m) for m in d["measures"]], d["lambda"])


def save_measure(m: DiscreteMeasure, path) -> None:
    with open(path, "w") as fh:
        json.dump(measure_to_dict(m), fh)
        fh.write("\n")


def load_measure(path) -> DiscreteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))


def save_ensemble(e: MeasureEnsemble, path) -> None:
    with open(path, "w") as fh:
        json.dump(ensemble_to_dict(e), fh)
        fh.write("\n")


def load_ensemble(path) -> MeasureEnsemble:
    with open(path) as fh:
        return ensemble_from_dict(json.load(fh))
