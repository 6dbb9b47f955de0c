"""Seeded inputs and timed operations of the benchmark workloads.

``build(name, seed, workdir)`` returns the instances of one cycle of a
workload.  Every instance keeps the inputs its output check needs, so the
checks in ``checks.py`` never read the program's own view of them.  Library
functions are looked up on the ``otbary`` package at call time, so a traced
run sees the wrapped ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import otbary as ot
import otbary.cli  # noqa: F401  (the `otbary experiment` entry point)


@dataclass
class Instance:
    label: str
    kind: str
    run: Callable[[], object]
    data: dict = field(default_factory=dict)


def fingerprint(inst: Instance, output):
    """Scalar or text that every repeat of the instance must reproduce."""
    if inst.kind == "consistency":
        return output
    return output.objective


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _sorted_atoms(x: np.ndarray) -> np.ndarray:
    # Lexicographic order: the canonical form the library merges to.
    return x[np.lexsort(x.T[::-1])]


# ---------------------------------------------------------------------------
# barycenter: exact barycenters through the multi-marginal LP
# ---------------------------------------------------------------------------

GRID_SIDE = 7  # grid graph of GRID_SIDE^2 nodes, unit edges
SUPPORT_SIDE = 6  # fixed-support candidate grid of SUPPORT_SIDE^2 points


def _grid_graph_distances(side: int) -> np.ndarray:
    # Shortest-path lengths on the side x side grid graph (Floyd-Warshall).
    n = side * side
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                d[i, i + 1] = d[i + 1, i] = 1.0
            if r + 1 < side:
                d[i, i + side] = d[i + side, i] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def _cloud_ensemble(rng, plane, sizes, tight) -> ot.MeasureEnsemble:
    """Members are Gaussian clusters around the vertices of a regular polygon.

    Tight ensembles (seeded p = 1 instances) have tight, far-apart clusters
    and equal weights, so every tuple's geometric median lies inside its
    polygon, away from the atoms, where Weiszfeld's iteration is fast.  The
    others have overlapping clusters and unequal weights.
    """
    J = len(sizes)
    radius, spread = (2.0, 0.4) if tight else (1.5, 0.7)
    angles = 2 * np.pi * np.arange(J) / J
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    members = [
        ot.DiscreteMeasure(
            plane,
            _sorted_atoms(centers[j] + spread * rng.normal(size=(n, 2))),
            rng.dirichlet(np.full(n, 2.0)),
        )
        for j, n in enumerate(sizes)
    ]
    lam = np.full(J, 1.0 / J) if tight else rng.dirichlet(np.full(J, 4.0))
    return ot.MeasureEnsemble(members, lam)


def _graph_ensemble(rng, graph, sizes) -> ot.MeasureEnsemble:
    members = [
        ot.DiscreteMeasure(
            graph,
            np.sort(rng.choice(graph.n_points, size=n, replace=False)),
            rng.dirichlet(np.full(n, 2.0)),
        )
        for n in sizes
    ]
    return ot.MeasureEnsemble(members, rng.dirichlet(np.full(len(sizes), 4.0)))


# Key of the "slow" instance, drawn the same for every --seed.  Its tuples'
# geometric medians sit near atoms, where Weiszfeld's iteration converges
# sublinearly: 19 856 iterations against 3 500-4 500 for a tight ensemble of
# the same size.  A fixed key keeps that count, and the run, steady.
SLOW_P1_KEY = (0, 2, 100, 6)

# (label, space, p, member sizes) in cycle order; products of 10^2..10^4 tuples.
BARYCENTER_CASES = [
    ("plane-p2-J3-1000", "plane", 2.0, (10, 10, 10)),
    ("plane-p1-J3-120", "plane", 1.0, (4, 5, 6)),
    ("plane-p2-J4-3024", "plane", 2.0, (6, 7, 8, 9)),
    ("graph-p1-J3-1000", "graph", 1.0, (10, 10, 10)),
    ("plane-p2-J3-8000", "plane", 2.0, (20, 20, 20)),
    ("fixed-p2-J3-36pts", "fixed", 2.0, (8, 10, 12)),
    ("plane-p1-J3-125", "plane", 1.0, (5, 5, 5)),
    ("graph-p2-J4-7920", "graph", 2.0, (8, 9, 10, 11)),
    ("plane-p2-J4-9900", "plane", 2.0, (9, 10, 10, 11)),
    ("slow-p1-J3-125", "slow", 1.0, (5, 5, 5)),
]


def _barycenter(seed: int, workdir: str) -> list[Instance]:
    plane = ot.Euclidean(2)
    dist = _grid_graph_distances(GRID_SIDE)
    graph = ot.MetricMatrix(dist)
    axis = np.linspace(-2.0, 2.0, SUPPORT_SIDE)
    support = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    out = []
    for k, (label, where, p, sizes) in enumerate(BARYCENTER_CASES):
        slow = where == "slow"
        if slow:
            rng = np.random.default_rng(np.random.SeedSequence(SLOW_P1_KEY))
            where = "plane"
        else:
            rng = _rng(seed, 2, k)
        data = {"p": p, "space": where}
        if where == "graph":
            ens = _graph_ensemble(rng, graph, sizes)
            data["dist"] = dist
            run = lambda ens=ens, p=p: ot.barycenter_finite(graph, p, ens)
        elif where == "fixed":
            ens = _cloud_ensemble(rng, plane, sizes, tight=False)
            data["support"] = support
            run = lambda ens=ens, p=p: ot.barycenter_fixed_support(plane, p, ens, support)
        else:
            ens = _cloud_ensemble(rng, plane, sizes, tight=p == 1 and not slow)
            run = lambda ens=ens, p=p: ot.barycenter_finite(plane, p, ens)
        data["atoms"] = [m.atoms for m in ens.measures]
        data["weights"] = [m.weights for m in ens.measures]
        data["lam"] = ens.lam
        out.append(Instance(label=label, kind="barycenter", run=run, data=data))
    return out


# ---------------------------------------------------------------------------
# consistency: the paper's two experiments through `otbary experiment`
# ---------------------------------------------------------------------------

TEMPLATE_ATOMS = 20  # demos/03: 20 uniform atoms on [0, 1]
SPLINE_TEMPLATE_ATOMS = 10
SPLINE_KNOTS = 5
SPLINE_LOG_SLOPE_STD = 0.3

# (label, framework, sizes, replications) in cycle order.
CONSISTENCY_CASES = [
    ("empirical-3x10..1000", "empirical_sampling", [10, 100, 1000], 1),
    ("growing-spline-J1..4", "deformation", [1, 2, 3, 4], 1),
    ("empirical-5x10..1000-rep2", "empirical_sampling", [10, 30, 100, 300, 1000], 2),
]


def _line_measure(atoms, weights) -> dict:
    return {
        "space": {"type": "euclidean", "dim": 1},
        "atoms": [[float(x)] for x in atoms],
        "weights": [float(w) for w in weights],
    }


def _experiment_op(cfg_path: str, csv_path: str):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = ot.cli.main(["experiment", "--config", cfg_path, "--out", csv_path])
        with open(csv_path) as fh:
            return code, fh.read()

    return run


def _consistency(seed: int, workdir: str) -> list[Instance]:
    out = []
    for k, (label, framework, sizes, reps) in enumerate(CONSISTENCY_CASES):
        rng = _rng(seed, 3, k)
        cfg_seed = int(rng.integers(2**31))
        data = {"framework": framework, "seed": cfg_seed, "sizes": sizes, "reps": reps}
        cfg = {"framework": framework, "p": 2.0, "seed": cfg_seed, "sizes": sizes,
               "replications": reps}
        if framework == "empirical_sampling":
            # Three translates of the demos/03 template, written out verbatim.
            grid = np.linspace(0.0, 1.0, TEMPLATE_ATOMS)
            offsets = rng.uniform(-0.3, 0.3, size=3)
            members = [(grid + off, np.full(TEMPLATE_ATOMS, 1.0 / TEMPLATE_ATOMS))
                       for off in offsets]
            cfg["ensemble"] = {
                "lambda": [1.0 / 3] * 3,
                "measures": [_line_measure(a, w) for a, w in members],
            }
            data["members"] = members
        else:
            # Monotone-spline warps of a template, drawn by the library.
            x = np.sort(rng.uniform(0.0, 1.0, size=SPLINE_TEMPLATE_ATOMS))
            w = rng.dirichlet(np.full(SPLINE_TEMPLATE_ATOMS, 3.0))
            spline_seed = int(rng.integers(2**31))
            cfg["template"] = _line_measure(x, w)
            cfg["deformation"] = {
                "kind": "monotone-1d-spline",
                "params": {"low": 0.0, "high": 1.0, "knots": SPLINE_KNOTS,
                           "log_slope_std": SPLINE_LOG_SLOPE_STD},
                "seed": spline_seed,
                "count": sizes[-1],
            }
            data.update(template=(x, w), spline_seed=spline_seed, knots=SPLINE_KNOTS,
                        log_slope_std=SPLINE_LOG_SLOPE_STD)
        cfg_path = os.path.join(workdir, f"consistency-{k}.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        run = _experiment_op(cfg_path, os.path.join(workdir, f"consistency-{k}.csv"))
        out.append(Instance(label=label, kind="consistency", run=run, data=data))
    return out


def build(name: str, seed: int, workdir: str) -> list[Instance]:
    """The instances of one cycle of workload ``name``."""
    builders = {"barycenter": _barycenter, "consistency": _consistency}
    return builders[name](seed, workdir)
