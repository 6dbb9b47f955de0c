"""Convergence experiments for barycenters of converging ensembles.

One runner, :func:`run_experiment`, covers both frameworks of an
:class:`ExperimentConfig`: replace each member measure by an n-sample
empirical version (empirical_sampling), or grow the ensemble one member at
a time toward a reference ensemble (growing_ensemble / deformation).  Every
row of the report records the distance from the recomputed barycenter to
the reference barycenter; the ensemble-level distance is the exact nested
transport problem (outer LP over member measures, inner costs W_p^p).  On
the line both need no inner solver: the distance to the reference is the
north-west-corner plan of :func:`otbary.transport.wasserstein`, and all
inner costs of the ensemble distance come from one pass over the common
refinement of every member's cumulative weights, leaving one transport
solve (the outer one) per row.

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
from .measures import (
    DiscreteMeasure,
    MeasureEnsemble,
    ensemble_from_dict,
    measure_from_dict,
    pushforward,
    sample_empirical,
    save_measure,
)
from .multimarginal import DEFAULT_PRODUCT_CAP
from .spaces import Euclidean, Space, check_order
from .staircase import _comonotone_entries
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

    def median_dist(self, size: int) -> float:
        vals = [
            r.dist_to_ref
            for r in self.rows
            if r.size == size and r.dist_to_ref is not None
        ]
        if not vals:
            return float("nan")
        return float(np.median(vals))

    def summary(self) -> dict[int, float]:
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

    On the line every inner cost comes from one pass over the common
    refinement of all members' cumulative weights; elsewhere each pair is
    its own transport solve.
    """
    if ens_a.space != space or ens_b.space != space:
        raise DimensionMismatch("ensembles do not live on the given space")
    check_order(p)
    if isinstance(space, Euclidean) and space.dim == 1:
        cost = _line_member_costs(p, ens_a.measures, ens_b.measures)
    else:
        cost = np.zeros((ens_a.size, ens_b.size))
        for j, mu in enumerate(ens_a.measures):
            for k, nu in enumerate(ens_b.measures):
                w, _ = wasserstein(space, p, mu, nu)
                cost[j, k] = w**p
    res = solve_transport(cost, ens_a.lam, ens_b.lam)
    return max(res.cost, 0.0) ** (1.0 / p)


def _line_member_costs(p: float, measures_a, measures_b) -> np.ndarray:
    # W_p^p of every pair (a, b) on the line is the integral of
    # |Q_a - Q_b|^p over quantile levels.  On each interval of the common
    # refinement of every member's cumulative weights each quantile
    # function Q is constant, so row a of the matrix is
    # |Q_a - Q_b|^p @ width; one row at a time keeps memory at J_b x K.
    members = [*measures_a, *measures_b]
    idx, width = _comonotone_entries([m.weights for m in members])
    Q = np.stack([m.atoms[idx[:, k], 0] for k, m in enumerate(members)])
    Qa, Qb = Q[: len(measures_a)], Q[len(measures_a) :]
    return np.stack([(np.abs(q - Qb) ** p) @ width for q in Qa])


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
    cfg: ExperimentConfig,
    *,
    max_product_size: int = DEFAULT_PRODUCT_CAP,
    keep_artifacts: str | None = None,
) -> ConsistencyReport:
    """Run the experiment ``cfg`` describes: one row per (size, replication).

    ``cfg.framework`` picks each row's ensemble.  Under empirical_sampling
    the size-n ensemble replaces each member by an n-draw empirical version,
    seeded by (seed, n, member, replication); otherwise the size-J ensemble
    keeps the first J members of the reference with renormalized weights.
    Each row records the distance from that ensemble's barycenter to the
    reference barycenter and the ensemble's distance to the reference; an
    :class:`OTBaryError` becomes that row's ``error``.  Artifacts are named
    ``bary_n{size}_rep{rep}.json`` (``J`` in place of ``n`` when not
    sampling) and, when sampling, ``sample_n{size}_rep{rep}_j{j}.json``.
    """
    sampling = cfg.framework == "empirical_sampling"
    label = "n" if sampling else "J"
    space = cfg.ensemble.space
    ref = barycenter_finite(space, cfg.p, cfg.ensemble, max_product_size=max_product_size)
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
                bary = barycenter_finite(
                    space, cfg.p, ens, max_product_size=max_product_size
                )
                dist, _ = wasserstein(space, cfg.p, bary.measure, ref.measure)
                ens_dist = ensemble_distance(space, cfg.p, ens, cfg.ensemble)
                wall = (time.perf_counter() - t0) * 1e3
                report.rows.append(
                    ReportRow(
                        cfg.framework, size, rep, dist, ens_dist, bary.objective, wall
                    )
                )
                if keep_artifacts:
                    stem = f"{label}{size}_rep{rep}"
                    save_measure(
                        bary.measure, os.path.join(keep_artifacts, f"bary_{stem}.json")
                    )
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
