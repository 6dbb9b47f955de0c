"""Run the CLI end to end with scipy blocked.

    PYTHONPATH=src python tests/no_scipy_smoke.py

Sets ``sys.modules["scipy"] = None``, so any ``import scipy...`` raises,
imports ``otbary`` and ``otbary.cli``, and runs through ``cli.main``, in
a temporary directory: ``dist`` in 2D and, writing its plan, on the line
(``Euclidean(1)``, the north-west-corner route), ``bary`` in 2D at p = 1
and p = 2, on a grid graph and on a fixed support, ``mmot`` and three
``experiment`` runs: empirical sampling in 2D, which takes the
barycenter route, and two on the line at p = 2, which take the quantile
route, empirical sampling and a growing ensemble up to J = 6 members of
15 atoms, whose product of 1.1e7 tuples is past
``multimarginal.MAX_PRODUCT``, which the line route does not need.  One
more ``mmot`` run, on 3 plane members of 101 atoms (a product of 1.03e6
tuples), must exit 2 with ``ProductSizeExceeded``.  Exits 1 if a command
exits with another code than it should, if a row of an experiment
records an error, or if a scipy module was loaded.  The library needs
numpy alone; scipy is for the tests' oracles.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

sys.modules["scipy"] = None  # blocks every scipy import

import numpy as np  # noqa: E402

import otbary as ot  # noqa: E402
import otbary.cli  # noqa: E402
from otbary.measures import save_ensemble, save_measure  # noqa: E402


def _grid_graph(side):
    # Shortest-path distances of the side x side grid graph: L1 on the grid.
    ij = np.indices((side, side)).reshape(2, -1).T
    return np.abs(ij[:, None, :] - ij[None, :, :]).sum(axis=2).astype(float)


def _inputs(tmp: Path) -> dict:
    rng = np.random.default_rng(20150612)
    plane = ot.Euclidean(2)
    clouds = [
        ot.DiscreteMeasure(plane, rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n)))
        for n in (6, 5, 4)
    ]
    graph = ot.MetricMatrix(_grid_graph(5))
    nodes = [ot.DiscreteMeasure(graph, rng.choice(25, size=5, replace=False), np.full(5, 0.2))
             for _ in range(3)]
    axis = np.linspace(-1.5, 1.5, 4)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    paths = {name: tmp / f"{name}.json"
             for name in ("a", "b", "line_a", "line_b", "plane", "big_plane", "graph", "grid", "sampled_2d",
                          "sampled_1d", "growing_1d")}
    save_measure(clouds[0], paths["a"])
    save_measure(clouds[1], paths["b"])
    save_ensemble(ot.MeasureEnsemble(clouds, [0.5, 0.3, 0.2]), paths["plane"])
    # Their own generator, so the other inputs are drawn as before.
    line_rng = np.random.default_rng(1)
    for name, n in (("line_a", 7), ("line_b", 5)):
        save_measure(ot.DiscreteMeasure(ot.Euclidean(1), line_rng.normal(size=(n, 1)),
                                        line_rng.dirichlet(np.ones(n))), paths[name])
    # Its own generator, so the other inputs are drawn as before.
    big_rng = np.random.default_rng(101)
    big = [ot.DiscreteMeasure(plane, big_rng.normal(size=(101, 2)), np.full(101, 1 / 101))
           for _ in range(3)]
    save_ensemble(ot.MeasureEnsemble(big, np.full(3, 1 / 3)), paths["big_plane"])
    save_ensemble(ot.MeasureEnsemble(nodes, np.full(3, 1 / 3)), paths["graph"])
    save_measure(ot.DiscreteMeasure(plane, grid, np.full(16, 1 / 16)), paths["grid"])
    paths["sampled_2d"].write_text(json.dumps({
        "framework": "empirical_sampling",
        "p": 2,
        "seed": 0,
        "sizes": [5, 20],
        "replications": 2,
        "template": {
            "space": {"type": "euclidean", "dim": 2},
            "atoms": rng.normal(size=(4, 2)).tolist(),
            "weights": [0.25] * 4,
        },
        "deformation": {
            "kind": "translation",
            "seed": 4,
            "count": 3,
            "params": {"offset": {"dist": "uniform", "low": -0.2, "high": 0.2}},
        },
    }))
    paths["sampled_1d"].write_text(json.dumps({
        "framework": "empirical_sampling",
        "p": 2,
        "seed": 0,
        "sizes": [5, 50],
        "replications": 2,
        "template": {
            "space": {"type": "euclidean", "dim": 1},
            "atoms": rng.normal(size=(10, 1)).tolist(),
            "weights": rng.dirichlet(np.ones(10)).tolist(),
        },
        "deformation": {
            "kind": "scaling",
            "seed": 5,
            "count": 3,
            "params": {"factor": {"dist": "uniform", "low": 0.5, "high": 2.0}},
        },
    }))
    paths["growing_1d"].write_text(json.dumps({
        "framework": "growing_ensemble",
        "p": 2,
        "seed": 0,
        "sizes": [2, 4, 6],
        "ensemble": {
            "lambda": [1 / 6] * 6,
            "measures": [
                {
                    "space": {"type": "euclidean", "dim": 1},
                    "atoms": rng.normal(size=(15, 1)).tolist(),
                    "weights": rng.dirichlet(np.ones(15)).tolist(),
                }
                for _ in range(6)
            ],
        },
    }))
    return {name: str(path) for name, path in paths.items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        tmp = Path(workdir)
        f = _inputs(tmp)
        out = str(tmp / "out.json")
        runs = [
            (["dist", "--in-a", f["a"], "--in-b", f["b"], "--plan", out], 0),
            (["dist", "--in-a", f["line_a"], "--in-b", f["line_b"], "--plan", out], 0),
            (["bary", "--in", f["plane"], "--out", out, "--p", "1"], 0),
            (["bary", "--in", f["plane"], "--out", out, "--p", "2"], 0),
            (["bary", "--in", f["graph"], "--out", out], 0),
            (["bary", "--in", f["plane"], "--out", out, "--support", f["grid"]], 0),
            (["mmot", "--in", f["plane"], "--out", out], 0),
            (["mmot", "--in", f["big_plane"], "--out", out], 2),
        ]
        reports = {name: tmp / f"{name}.csv" for name in ("sampled_2d", "sampled_1d", "growing_1d")}
        runs += [(["experiment", "--config", f[name], "--out", str(csv_path)], 0)
                 for name, csv_path in reports.items()]
        failed = 0
        for argv, expected in runs:
            with redirect_stdout(StringIO()):
                code = otbary.cli.main(argv)
            print(f"otbary {argv[0]}: exit {code}")
            failed += code != expected
        for name, csv_path in reports.items():
            rows = []
            if csv_path.exists():
                with open(csv_path, newline="") as fh:
                    rows = list(csv.DictReader(fh))
            errors = [row["error"] for row in rows if row["error"]]
            print(f"{name} experiment: {len(rows)} rows, {len(errors)} with an error")
            failed += not rows or bool(errors)
    loaded = sorted(name for name, mod in sys.modules.items()
                    if name.startswith("scipy") and mod is not None)
    if loaded:
        print("scipy modules loaded:", ", ".join(loaded))
    return 1 if failed or loaded else 0


if __name__ == "__main__":
    sys.exit(main())
