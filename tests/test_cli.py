import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from otbary import DiscreteMeasure, Euclidean, MeasureEnsemble, measures_equal
from otbary import barycenter, multimarginal, pivoting, transport
from otbary.cli import main
from otbary.measures import (
    load_measure,
    save_ensemble,
    save_measure,
)

LINE = Euclidean(1)


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")


@pytest.fixture
def dirac_files(tmp_path):
    a = DiscreteMeasure(LINE, [[0.0]], [1.0])
    b = DiscreteMeasure(LINE, [[3.0]], [1.0])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_measure(a, pa)
    save_measure(b, pb)
    return pa, pb


@pytest.fixture
def ensemble_file(tmp_path, dirac_files):
    pa, pb = dirac_files
    ens = MeasureEnsemble(
        [load_measure(pa), load_measure(pb)], [0.5, 0.5]
    )
    pe = tmp_path / "ens.json"
    save_ensemble(ens, pe)
    return pe


def test_dist_identical(tmp_path, dirac_files, capsys):
    pa, _ = dirac_files
    assert main(["dist", "--in-a", str(pa), "--in-b", str(pa)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["w_p"] == pytest.approx(0.0)


def test_dist_diracs_p1(dirac_files, capsys):
    pa, pb = dirac_files
    assert main(["dist", "--p", "1", "--in-a", str(pa), "--in-b", str(pb)]) == 0
    assert json.loads(capsys.readouterr().out)["w_p"] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["variance", "--in", "e.json", "--tol", "1e-9"],
        ["quantize", "--in", "m.json", "--k", "1", "--out", "q.json", "--seed", "3"],
        ["bary", "--in", "e.json", "--out", "b.json", "--method", "auto"],
        ["experiment", "--config", "c.json", "--out", "r.csv", "--p", "1"],
        ["quantize", "--in", "m.json", "--k", "1", "--out", "q.json", "--p", "1"],
        ["dist", "--in-a", "a.json", "--in-b", "b.json", "--max-product-size", "4"],
        ["quantize", "--in", "m.json", "--k", "1", "--out", "q.json", "--max-product-size", "4"],
        ["dist", "--tol", "1e-12", "--in-a", "a.json", "--in-b", "b.json"],
        ["bary", "--in", "e.json", "--out", "b.json", "--method", "fixed"],
        ["bary", "--in", "e.json", "--out", "b.json", "--support", "g.json",
         "--max-product-size", "4"],
    ],
)
def test_flags_are_rejected_where_unread(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_experiment_seed_flag(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    outs = [tmp_path / f"r{k}.csv" for k in range(3)]
    for out, seed in zip(outs, ["4", "4", "5"]):
        assert main(["experiment", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_bytes() != outs[2].read_bytes()


def test_dist_missing_file(tmp_path, dirac_files, capsys):
    _, pb = dirac_files
    missing = tmp_path / "nope.json"
    assert main(["dist", "--in-a", str(missing), "--in-b", str(pb)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_dist_malformed_json(tmp_path, dirac_files):
    _, pb = dirac_files
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["dist", "--in-a", str(bad), "--in-b", str(pb)]) == 1


def test_bary_midpoint_dirac(tmp_path, ensemble_file, capsys):
    out = tmp_path / "bary.json"
    assert main(["bary", "--in", str(ensemble_file), "--out", str(out)]) == 0
    bary = load_measure(out)
    assert measures_equal(bary, DiscreteMeasure(LINE, [[1.5]], [1.0]))


def test_bary_fixed_single_point(tmp_path, ensemble_file):
    grid = tmp_path / "grid.json"
    save_measure(DiscreteMeasure(LINE, [[0.7]], [1.0]), grid)
    out = tmp_path / "bary.json"
    rc = main([
        "bary", "--in", str(ensemble_file), "--out", str(out), "--support", str(grid),
    ])
    assert rc == 0
    assert measures_equal(load_measure(out), DiscreteMeasure(LINE, [[0.7]], [1.0]))


def test_bary_oversized_exits_2(tmp_path, capsys):
    # In the plane: the line route at p = 2 builds no product, so the cap
    # does not apply there.
    ms = [DiscreteMeasure(Euclidean(2), [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]) for _ in range(3)]
    ens = MeasureEnsemble(ms, np.full(3, 1 / 3))
    pe = tmp_path / "big.json"
    save_ensemble(ens, pe)
    out = tmp_path / "bary.json"
    rc = main([
        "bary", "--in", str(pe), "--out", str(out), "--max-product-size", "4",
    ])
    assert rc == 2
    assert "4" in capsys.readouterr().err  # message names the cap


def _plane_cloud(n):
    atoms = np.arange(2.0 * n).reshape(n, 2) ** 1.5
    return DiscreteMeasure(Euclidean(2), atoms, np.full(n, 1 / n))


def _refuse(*args, **kwargs):
    raise AssertionError("costs built for an LP past the row bound")


def test_lps_past_the_row_bound_exit_2(tmp_path, monkeypatch, capsys):
    # With the bound at 4 rows, each command below sets up an LP of 5 to 8
    # rows.  It must raise before it builds any cost, and the cost builders
    # fail if reached, so a missing check cannot allocate.
    monkeypatch.setattr(pivoting, "MAX_ROWS", 4)
    for module, name in [
        (transport, "pairwise_distances"),
        (multimarginal, "product_costs"),
        (multimarginal, "frechet_means"),
        (barycenter, "pairwise_distances"),
    ]:
        monkeypatch.setattr(module, name, _refuse)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_measure(_plane_cloud(2), a)
    save_measure(_plane_cloud(4), b)
    pair, triple = tmp_path / "pair.json", tmp_path / "triple.json"
    save_ensemble(MeasureEnsemble([_plane_cloud(2), _plane_cloud(4)], [0.5, 0.5]), pair)
    save_ensemble(MeasureEnsemble([_plane_cloud(2)] * 3, np.full(3, 1 / 3)), triple)
    out = str(tmp_path / "out.json")
    for argv, rows in [
        (["dist", "--in-a", str(a), "--in-b", str(b)], 5),
        (["mmot", "--in", str(pair), "--out", out], 5),
        (["bary", "--in", str(triple), "--out", out, "--support", str(a)], 8),
    ]:
        assert main(argv) == 2
        assert f"ProductSizeExceeded: LP of {rows} rows" in capsys.readouterr().err


def test_mmot_writes_coupling_and_bary(tmp_path, ensemble_file, capsys):
    coup = tmp_path / "coupling.json"
    bary = tmp_path / "bary.json"
    rc = main([
        "mmot", "--in", str(ensemble_file), "--out", str(coup), "--bary", str(bary),
    ])
    assert rc == 0
    data = json.loads(coup.read_text())
    assert data["objective"] == pytest.approx(2.25)
    total = sum(mass for _, mass in data["entries"])
    assert total == pytest.approx(1.0)
    assert measures_equal(load_measure(bary), DiscreteMeasure(LINE, [[1.5]], [1.0]))


def test_variance(ensemble_file, capsys):
    assert main(["variance", "--in", str(ensemble_file)]) == 0
    assert json.loads(capsys.readouterr().out)["variance"] == pytest.approx(2.25)


def test_quantize_roundtrip(tmp_path, capsys):
    m = DiscreteMeasure(LINE, [[0.0], [1.0], [10.0], [11.0]], np.full(4, 0.25))
    src = tmp_path / "m.json"
    save_measure(m, src)
    out = tmp_path / "q.json"
    assert main(["quantize", "--in", str(src), "--k", "2", "--out", str(out)]) == 0
    q = load_measure(out)
    assert q.n_atoms == 2
    assert q.weights.sum() == pytest.approx(1.0)


def experiment_config(tmp_path, sizes=(5, 10)):
    cfg = {
        "framework": "empirical_sampling",
        "p": 2,
        "seed": 0,
        "sizes": list(sizes),
        "replications": 2,
        "template": {
            "space": {"type": "euclidean", "dim": 1},
            "atoms": [[0.0], [0.5], [1.0]],
            "weights": [1 / 3, 1 / 3, 1 / 3],
        },
        "deformation": {
            "kind": "translation",
            "seed": 4,
            "count": 2,
            "params": {"offset": {"dist": "uniform", "low": -0.2, "high": 0.2}},
        },
    }
    path = tmp_path / "cfg.json"
    write_json(path, cfg)
    return path


def test_experiment_runs_and_is_deterministic(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("framework,size,replication,dist_to_ref,ensemble_dist,objective,wall_ms")


def _experiment_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_experiment_timing_fills_wall_ms(tmp_path, capsys):
    cfg = experiment_config(tmp_path)
    plain, timed = tmp_path / "plain.csv", tmp_path / "timed.csv"
    assert main(["experiment", "--config", str(cfg), "--out", str(plain)]) == 0
    assert main(["experiment", "--config", str(cfg), "--out", str(timed), "--timing"]) == 0
    rows, timed_rows = _experiment_rows(plain), _experiment_rows(timed)
    assert len(rows) == len(timed_rows) == 4
    assert all(r["wall_ms"] == "" for r in rows)
    assert all(float(r["wall_ms"]) > 0 for r in timed_rows)
    for r, t in zip(rows, timed_rows):
        assert {**t, "wall_ms": ""} == r


@pytest.mark.parametrize(
    "framework, sizes, label",
    [("empirical_sampling", [5, 10], "n"), ("growing_ensemble", [1, 2], "J")],
)
def test_experiment_keeps_artifacts(tmp_path, capsys, framework, sizes, label):
    # One barycenter per row and, when sampling, every member's sample;
    # a rerun writes the same bytes.
    cfg = experiment_config(tmp_path)
    write_json(cfg, {**json.loads(cfg.read_text()), "framework": framework, "sizes": sizes})
    barys = {(s, r): f"bary_{label}{s}_rep{r}.json" for s in sizes for r in (0, 1)}
    samples = {
        (s, r, j): f"sample_n{s}_rep{r}_j{j}.json"
        for s, r in barys
        for j in (0, 1)
        if label == "n"
    }
    runs = []
    for k in range(2):
        keep = tmp_path / f"artifacts{k}"
        keep.mkdir()
        out = tmp_path / f"r{k}.csv"
        argv = ["experiment", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--keep-artifacts", str(keep)]) == 0
        written = sorted(f.name for f in keep.iterdir())
        assert written == sorted([*barys.values(), *samples.values()])
        runs.append({f.name: f.read_bytes() for f in keep.iterdir()})
    assert runs[0] == runs[1]
    keep = tmp_path / "artifacts0"
    for row in _experiment_rows(tmp_path / "r0.csv"):
        assert row["error"] == ""
        bary = load_measure(keep / barys[int(row["size"]), int(row["replication"])])
        assert bary.weights.sum() == pytest.approx(1.0)
    for (n, _, _), name in samples.items():
        counts = load_measure(keep / name).weights * n
        assert np.allclose(counts, np.round(counts))


def test_experiment_bad_sizes_exit_3(tmp_path):
    cfg_path = experiment_config(tmp_path)
    raw = json.loads(cfg_path.read_text())
    # Decreasing sizes, and a growing ensemble past its two members.
    for change in ({"sizes": [10, 5]}, {"framework": "growing_ensemble", "sizes": [1, 3]}):
        write_json(cfg_path, {**raw, **change})
        assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 3


def test_cli_outputs_reparse(tmp_path, ensemble_file):
    # round-trip: measures written by commands parse back to equal measures
    out = tmp_path / "bary.json"
    main(["bary", "--in", str(ensemble_file), "--out", str(out)])
    m = load_measure(out)
    again = json.loads(out.read_text())
    assert measures_equal(m, DiscreteMeasure(LINE, again["atoms"], again["weights"]))


def test_determinism_all_commands(tmp_path, ensemble_file, dirac_files):
    pa, pb = dirac_files
    pairs = []
    for tag in ("x", "y"):
        plan = tmp_path / f"plan_{tag}.json"
        bary = tmp_path / f"bary_{tag}.json"
        coup = tmp_path / f"coup_{tag}.json"
        q = tmp_path / f"q_{tag}.json"
        main(["dist", "--in-a", str(pa), "--in-b", str(pb), "--plan", str(plan)])
        main(["bary", "--in", str(ensemble_file), "--out", str(bary)])
        main(["mmot", "--in", str(ensemble_file), "--out", str(coup)])
        main(["quantize", "--in", str(pa), "--k", "1", "--out", str(q)])
        pairs.append((plan.read_bytes(), bary.read_bytes(), coup.read_bytes(), q.read_bytes()))
    assert pairs[0] == pairs[1]


def test_import_does_not_load_scipy_optimize():
    # The HiGHS oracle (scipy.optimize) and the dense simplex live in the
    # tests; the library and the CLI load neither.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, otbary, otbary.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy.optimize' "
        "or m.startswith('scipy.optimize.') or 'simplex' in m.rsplit('.', 1)[-1]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_cli_runs_without_scipy():
    # The library needs numpy alone.  The smoke script blocks scipy, runs
    # dist, bary (p = 1, p = 2, graph, fixed support), mmot and two
    # experiments (2D, and the line past the product cap) through the CLI,
    # and fails if any of them does or a scipy module loads.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("no_scipy_smoke.py"))],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.count(": exit 0") == 8
