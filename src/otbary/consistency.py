"""Convergence experiments for barycenters of converging ensembles.

One runner, :func:`run_experiment`, covers both frameworks of an
:class:`ExperimentConfig`: replace each member measure by an n-sample
empirical version (empirical_sampling), or grow the ensemble one member at
a time toward a reference ensemble (growing_ensemble / deformation).  Every
row of the report records the barycenter's objective, its distance to the
reference barycenter and the ensemble-level distance, the exact nested
transport problem (outer LP over member measures, inner costs W_p^p).

On the line (:func:`otbary.spaces.is_line`) all three come from one
common refinement of the cumulative weights of the row's members and the
reference's members (:func:`_line_quantiles`), at every p.  On each of its
intervals every quantile function Q_k is constant, the barycenter's
quantile function is the pointwise Fréchet mean of the members' (the
comonotone coupling of
:func:`otbary.multimarginal.solve_multimarginal`'s line route; at p = 2
the lam-weighted average, at p = 1 the running maximum of the medians),
and W_p^p between two measures is the width-weighted sum of |quantile
gap|^p.  Such a row computes no barycenter and no reference barycenter,
and runs one transport solve, the outer one of the ensemble distance.
The reference's side of that refinement does not change from row to
row: :class:`_LineReference` builds it once per experiment, and each row
computes only what its own members change (see there).
Every other space recomputes the barycenter with
:func:`otbary.barycenter.barycenter_finite` and compares it with the
reference barycenter by :func:`otbary.transport.wasserstein`.
:func:`ensemble_distance` prices member pairs on the line from the same
refinement.

All randomness is derived from the single master seed through
``numpy.random.SeedSequence`` keyed by (seed, size, member, replication), so
reports are byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .barycenter import barycenter_finite
from .deformations import DeformationSpec, draw_deformations
from .errors import DimensionMismatch, InvalidConfig, OTBaryError
from .frechet import frechet_means
from .measures import (
    DiscreteMeasure,
    MeasureEnsemble,
    ensemble_from_dict,
    measure_from_dict,
    pushforward,
    sample_empirical,
    save_measure,
)
from .spaces import Euclidean, Space, check_order, is_line
from .staircase import _BOUNDS, _entries, _refinement, check_marginals
from .transport import solve_transport, wasserstein

FRAMEWORKS = ("growing_ensemble", "empirical_sampling", "deformation")

CSV_COLUMNS = [
    "framework",
    "size",
    "replication",
    "dist_to_ref",
    "ensemble_dist",
    "objective",
    "wall_ms",
    "error",
]


@dataclass
class ExperimentConfig:
    framework: str
    p: float
    seed: int
    sizes: list[int]
    ensemble: MeasureEnsemble
    replications: int = 1

    def __post_init__(self):
        if self.framework not in FRAMEWORKS:
            raise InvalidConfig(f"unknown framework {self.framework!r}")
        try:
            check_order(self.p)
        except DimensionMismatch as exc:
            raise InvalidConfig(str(exc)) from None
        if self.replications < 1:
            raise InvalidConfig("replications must be >= 1")
        if len(self.sizes) == 0 or self.sizes[0] < 1 or any(
            b <= a for a, b in zip(self.sizes, self.sizes[1:])
        ):
            raise InvalidConfig(
                "sizes must be a nonempty strictly increasing list of positive integers"
            )
        if self.framework != "empirical_sampling" and self.sizes[-1] > self.ensemble.size:
            raise InvalidConfig(
                f"largest size {self.sizes[-1]} exceeds ensemble size {self.ensemble.size}"
            )


@dataclass
class ReportRow:
    framework: str
    size: int
    replication: int
    dist_to_ref: float | None
    ensemble_dist: float | None
    objective: float | None
    wall_ms: float | None
    error: str = ""


@dataclass
class ConsistencyReport:
    rows: list[ReportRow] = field(default_factory=list)

    def median_dist(self, size: int) -> float | None:
        """Median dist_to_ref over the rows of ``size`` that succeeded, None
        when none did (so that the summary stays JSON)."""
        vals = [
            r.dist_to_ref
            for r in self.rows
            if r.size == size and r.dist_to_ref is not None
        ]
        if not vals:
            return None
        return float(np.median(vals))

    def summary(self) -> dict[int, float | None]:
        return {s: self.median_dist(s) for s in sorted({r.size for r in self.rows})}

    def to_csv(self, path, *, timing: bool = False) -> None:
        """Write the report; wall_ms stays empty unless ``timing`` is set so
        that identical runs produce byte-identical files."""

        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, float):
                return format(x, ".17g")
            return str(x)

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow(
                    [
                        r.framework,
                        r.size,
                        r.replication,
                        fmt(r.dist_to_ref),
                        fmt(r.ensemble_dist),
                        fmt(r.objective),
                        fmt(r.wall_ms) if timing else "",
                        r.error,
                    ]
                )


def ensemble_distance(
    space: Space, p: float, ens_a: MeasureEnsemble, ens_b: MeasureEnsemble
) -> float:
    """Exact W_p between two finite ensembles: outer transportation LP over
    member measures with inner costs W_p^p.

    On the line every inner cost comes from the quantile functions of
    :func:`_line_quantiles`, one refinement of all members' cumulative
    weights; elsewhere each pair is its own transport solve.

    Raises:
        NumericalFailure: on the line, the refinement misses a member's
            weights by more than ``staircase.MARGINAL_TOL``.
    """
    if ens_a.space != space or ens_b.space != space:
        raise DimensionMismatch("ensembles do not live on the given space")
    check_order(p)
    if is_line(space):
        Q, width, _ = _line_quantiles([*ens_a.measures, *ens_b.measures])
        cost = _quantile_costs(p, Q[: ens_a.size], Q[ens_a.size :], width)
    else:
        cost = np.zeros((ens_a.size, ens_b.size))
        for j, mu in enumerate(ens_a.measures):
            for k, nu in enumerate(ens_b.measures):
                w, _ = wasserstein(space, p, mu, nu)
                cost[j, k] = w**p
    return _outer_distance(p, cost, ens_a.lam, ens_b.lam)


def _line_quantiles(measures, base=_BOUNDS):
    # The quantile functions of measures on the line over the common
    # refinement of their cumulative weights and the sorted points ``base``
    # (see staircase._refinement): Q[k] holds member k's atom on each
    # interval, and width the intervals' lengths; the refinement comes
    # last.  Each member's weights must be the summed widths of its atoms'
    # intervals, within MARGINAL_TOL, as solve_multimarginal checks of its
    # coupling; one bincount over the members' atoms, numbered in turn,
    # checks them all.
    refinement = _refinement([m.weights for m in measures], base)
    idx, width = _entries(refinement)
    first = np.cumsum([0] + [m.n_atoms for m in measures[:-1]])
    flat = (idx + first).T
    weights = np.concatenate([m.weights for m in measures])
    marginals = np.bincount(flat.ravel(), np.tile(width, len(measures)), weights.shape[0])
    check_marginals([marginals], [weights], "quantile refinement")
    return np.concatenate([m.atoms[:, 0] for m in measures])[flat], width, refinement


def _quantile_costs(p: float, Qa, Qb, width) -> np.ndarray:
    # W_p^p of every pair (a, b) on the line is the integral of
    # |Q_a - Q_b|^p over quantile levels, so row a of the matrix is
    # |Q_a - Q_b|^p @ width; one row at a time keeps memory at J_b x K.
    return np.stack([(np.abs(q - Qb) ** p) @ width for q in Qa])


def _outer_distance(p: float, cost, lam_a, lam_b) -> float:
    return max(solve_transport(cost, lam_a, lam_b).objective, 0.0) ** (1.0 / p)


def _quantile_means(p: float, lam, Q) -> tuple[np.ndarray, np.ndarray]:
    # One Fréchet pass over the quantile tuples of a refinement (member k's
    # atom on interval i is Q[k, i]): each interval's mean and objective.
    K = Q.shape[1]
    F, objs, _ = frechet_means(
        Euclidean(1), p, lam, list(Q[:, :, None]), np.tile(np.arange(K)[:, None], (1, len(Q)))
    )
    return F[:, 0], objs


def _monotone(p: float, F) -> np.ndarray:
    # The barycenter's quantile function from its intervals' means.  A p = 1
    # median need not rise along the refinement; its running maximum is
    # still a median on every interval (the medians at t form [L(t), U(t)]
    # with L, U nondecreasing), so it is a quantile function.
    return np.maximum.accumulate(F) if p == 1 else F


class _LineReference:
    """The reference ensemble's side of the line rows of one experiment.

    :func:`run_experiment` builds it before its first line row and drops it
    with the call.  It holds the refinement of the reference members'
    cumulative weights (its sorted points and interval starts), their
    quantiles Q on it with the widths, and F, the Fréchet means of its
    quantile tuples: one pass at p != 2 (before p = 1's running maximum),
    ref.lam @ Q at p = 2.

    A sampled row's members refine those points further, which gives the
    refinement over the row's and the reference's members bit for bit
    (:func:`otbary.staircase._refinement`).  No reference point falls
    inside a kept interval of it, so on each such interval the reference's
    quantiles and means are those of the reference interval that holds
    it; only at p = 2 is the row's F_ref the matrix product again, on the
    row's intervals, since a product's bits can depend on a column's place
    in the matrix.  A prefix row (the first J members) has the reference's
    own refinement, so it reads Q, the widths, F and the first J rows of
    the inner costs, computed here for the largest J, ``prefix``.
    """

    def __init__(self, ref: MeasureEnsemble, p: float, prefix: int):
        self.ref, self.p, self.prefix = ref, p, prefix
        self.Q, self.width, (_, _, self.points, starts, _, _) = _line_quantiles(ref.measures)
        self.starts = starts[1:]  # the intervals' starts from 0 on, one per column of Q
        self.F = ref.lam @ self.Q if p == 2 else _quantile_means(p, ref.lam, self.Q)[0]
        if prefix:
            self.costs = _quantile_costs(p, self.Q[:prefix], self.Q, self.width)

    def row(self, ens: MeasureEnsemble, artifacts: bool):
        # One experiment row: the barycenter's quantile function F, its
        # objective the lam-weighted W_p^p to the members and dist_to_ref
        # its W_p to the reference's.  At p = 2 F is lam @ Q, in closed
        # form.  Returns dist_to_ref, ensemble_dist, the objective and,
        # when artifacts are asked for, the barycenter itself.
        p, lam_ref = self.p, self.ref.lam
        if self.prefix:
            Qa, width, F_ref = self.Q[: ens.size], self.width, self.F
            cost = self.costs[: ens.size]
        else:
            Qa, width, (_, _, _, starts, _, _) = _line_quantiles(ens.measures, self.points)
            at = self.starts.searchsorted(starts[1:], side="right") - 1
            Qb = self.Q[:, at]
            F_ref = lam_ref @ Qb if p == 2 else self.F[at]
            cost = _quantile_costs(p, Qa, Qb, width)
        if p == 2:
            F = ens.lam @ Qa
            objective = float(width @ (ens.lam @ (Qa - F) ** 2))
        else:
            F, objs = _quantile_means(p, ens.lam, Qa)
            objective = float(width @ objs)
            F, F_ref = _monotone(p, F), _monotone(p, F_ref)
        dist = float(width @ np.abs(F - F_ref) ** p) ** (1.0 / p)
        ens_dist = _outer_distance(p, cost, ens.lam, lam_ref)
        bary = DiscreteMeasure(ens.space, F[:, None], width / width.sum()) if artifacts else None
        return dist, ens_dist, objective, bary


def generate_deformation_ensemble(
    template: DiscreteMeasure, spec: DeformationSpec, count: int
) -> MeasureEnsemble:
    """count i.i.d. warps of the template, uniform ensemble weights."""
    if not isinstance(template.space, Euclidean):
        raise InvalidConfig("deformation templates must be Euclidean")
    maps = draw_deformations(spec, count, template.space.dim)
    measures = [pushforward(template, t) for t in maps]
    return MeasureEnsemble(measures, np.full(count, 1.0 / count))


def _child_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence([master, *key]).generate_state(1)[0])


def run_experiment(
    cfg: ExperimentConfig, *, keep_artifacts: str | None = None
) -> ConsistencyReport:
    """Run the experiment ``cfg`` describes: one row per (size, replication).

    ``cfg.framework`` picks each row's ensemble.  Under empirical_sampling
    the size-n ensemble replaces each member by an n-draw empirical version,
    seeded by (seed, n, member, replication); otherwise the size-J ensemble
    keeps the first J members of the reference with renormalized weights.
    Each row records the objective of that ensemble's barycenter, its
    distance to the reference barycenter and the ensemble's distance to
    the reference; an :class:`OTBaryError` becomes that row's ``error``.

    On the line (where :func:`otbary.spaces.is_line` holds), at any p, a
    row reads all three off one refinement of its members' and the
    reference's quantile functions: no barycenter is computed, neither the
    row's nor the reference's, and the refinement's widths are checked
    against every member's weights within ``staircase.MARGINAL_TOL``
    (``NumericalFailure`` otherwise).  The reference's half of it, and at
    p != 2 its one Fréchet pass, is built by the first line row and kept
    for the others of this call only (:class:`_LineReference`); an error
    there is every row's.  Elsewhere the reference barycenter
    is computed once and each row runs
    :func:`otbary.barycenter.barycenter_finite`,
    :func:`otbary.transport.wasserstein` and :func:`ensemble_distance`.
    There the product of the reference's sizes must be within
    ``multimarginal.MAX_PRODUCT`` (``ProductSizeExceeded`` before any row
    otherwise), and a row past it records the error.

    Artifacts are named ``bary_n{size}_rep{rep}.json`` (``J`` in place of
    ``n`` when not sampling) and, when sampling,
    ``sample_n{size}_rep{rep}_j{j}.json``; on the line the barycenter is
    built from its quantile function only when they are kept.
    """
    sampling = cfg.framework == "empirical_sampling"
    label = "n" if sampling else "J"
    space = cfg.ensemble.space
    line = is_line(space)
    if not line:
        ref = barycenter_finite(space, cfg.p, cfg.ensemble)
    line_ref = None  # built by the first line row, so that its errors are the rows'
    report = ConsistencyReport()
    for size in cfg.sizes:
        for rep in range(cfg.replications):
            t0 = time.perf_counter()
            try:
                if sampling:
                    members = [
                        sample_empirical(mu, size, _child_seed(cfg.seed, size, j, rep))
                        for j, mu in enumerate(cfg.ensemble.measures)
                    ]
                    ens = MeasureEnsemble(members, cfg.ensemble.lam)
                else:
                    lam = cfg.ensemble.lam[:size]
                    ens = MeasureEnsemble(cfg.ensemble.measures[:size], lam / lam.sum())
                if line:
                    if line_ref is None:
                        prefix = 0 if sampling else cfg.sizes[-1]
                        line_ref = _LineReference(cfg.ensemble, cfg.p, prefix)
                    dist, ens_dist, objective, bary = line_ref.row(ens, bool(keep_artifacts))
                else:
                    result = barycenter_finite(space, cfg.p, ens)
                    bary, objective = result.measure, result.objective
                    dist, _ = wasserstein(space, cfg.p, bary, ref.measure)
                    ens_dist = ensemble_distance(space, cfg.p, ens, cfg.ensemble)
                wall = (time.perf_counter() - t0) * 1e3
                report.rows.append(
                    ReportRow(cfg.framework, size, rep, dist, ens_dist, objective, wall)
                )
                if keep_artifacts:
                    stem = f"{label}{size}_rep{rep}"
                    save_measure(bary, os.path.join(keep_artifacts, f"bary_{stem}.json"))
                    if sampling:
                        for j, m in enumerate(ens.measures):
                            save_measure(
                                m, os.path.join(keep_artifacts, f"sample_{stem}_j{j}.json")
                            )
            except OTBaryError as exc:
                wall = (time.perf_counter() - t0) * 1e3
                report.rows.append(
                    ReportRow(
                        cfg.framework, size, rep, None, None, None, wall,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return report


def config_from_dict(d: dict) -> ExperimentConfig:
    """Parse the experiment JSON schema.

    The reference ensemble comes either verbatim under "ensemble" or is
    generated from "template" plus "deformation" (with member count).
    """
    try:
        framework = d["framework"]
        p = float(d.get("p", 2.0))
        seed = int(d.get("seed", 0))
        sizes = [int(s) for s in d["sizes"]]
        replications = int(d.get("replications", 1))
        spec = None
        if "deformation" in d:
            dd = d["deformation"]
            spec = DeformationSpec(
                kind=dd["kind"],
                params=dd.get("params", {}),
                seed=int(dd.get("seed", seed)),
            )
        if "ensemble" in d:
            ensemble = ensemble_from_dict(d["ensemble"])
        elif "template" in d and spec is not None:
            template = measure_from_dict(d["template"])
            count = int(d["deformation"].get("count", 0))
            if count < 1:
                raise InvalidConfig("deformation.count must be >= 1")
            ensemble = generate_deformation_ensemble(template, spec, count)
        else:
            raise InvalidConfig("config needs 'ensemble' or 'template'+'deformation'")
    except InvalidConfig:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidConfig(f"malformed experiment config: {exc}") from exc
    return ExperimentConfig(
        framework=framework,
        p=p,
        seed=seed,
        sizes=sizes,
        ensemble=ensemble,
        replications=replications,
    )
