"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured margin.  Tolerances are fixed here and
mirror the library's documented guarantees; run with ``pytest -s`` to see
the report lines."""

import json
import time

import numpy as np

from otbary import (
    DeformationSpec,
    DiscreteMeasure,
    Euclidean,
    ExperimentConfig,
    MeasureEnsemble,
    barycenter_finite,
    ensemble_objective,
    frechet_means,
    generate_deformation_ensemble,
    pushforward,
    pushforward_barycenter,
    run_experiment,
    solve_multimarginal,
    wasserstein,
    wasserstein_1d,
)
from otbary.cli import main
from otbary.measures import save_ensemble, save_measure
from otbary.multimarginal import _index_grid
from highs_oracle import brute_force_multimarginal, highs_transport


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_measure(rng, space, max_atoms, scale=2.0, uniform=False):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = scale * rng.normal(size=(n, space.dim))
    if uniform:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.random(n) + 0.05
        w /= w.sum()
    return DiscreteMeasure(space, atoms, w)


def _random_ensemble(rng, space, J, max_atoms):
    ms = [_random_measure(rng, space, max_atoms) for _ in range(J)]
    lam = rng.random(J) + 0.1
    return MeasureEnsemble(ms, lam / lam.sum())


def test_criterion_1_metric_axioms():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(200):
        s = Euclidean(1 + t % 3)
        p = (1, 2, 3)[t % 3]
        a, b, c = (_random_measure(rng, s, 20) for _ in range(3))
        wab = wasserstein(s, p, a, b)[0]
        wba = wasserstein(s, p, b, a)[0]
        worst = max(worst, abs(wab - wba))
        slack = wab + wasserstein(s, p, b, c)[0] - wasserstein(s, p, a, c)[0]
        worst = max(worst, max(0.0, -slack))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: metric axioms on 200 instances",
        worst <= 1e-8 and elapsed < 60,
        f"worst violation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_1d_oracle_agreement():
    rng = np.random.default_rng(102)
    line = Euclidean(1)
    t0 = time.perf_counter()
    worst = 0.0
    for t in range(100):
        p = (1, 2, 3)[t % 3]
        mu = _random_measure(rng, line, 50, scale=3.0)
        nu = _random_measure(rng, line, 50, scale=3.0)
        worst = max(worst, abs(wasserstein(line, p, mu, nu)[0] - wasserstein_1d(p, mu, nu)))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2: LP vs 1D quantile oracle on 100 pairs",
        worst <= 1e-8 and elapsed < 30,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_multimarginal_oracle_equivalence():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    worst_pairwise = 0.0
    for t in range(50):
        J = 2 + t % 2
        s = Euclidean(1 + t % 3)
        p = (1, 2, 3)[t % 3]
        ens = _random_ensemble(rng, s, J, 4)
        prod = solve_multimarginal(s, p, ens).objective
        oracle = brute_force_multimarginal(s, p, ens).objective
        worst = max(worst, abs(prod - oracle))
        if J == 2:
            mu, nu = ens.measures
            shape = (mu.n_atoms, nu.n_atoms)
            C = frechet_means(s, p, ens.lam, [mu.atoms, nu.atoms], _index_grid(shape))[1]
            C = C.reshape(shape)
            pair = highs_transport(C, mu.weights, nu.weights)
            worst_pairwise = max(worst_pairwise, abs(prod - pair))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3: multi-marginal solver vs HiGHS oracle (and J=2 pairwise HiGHS LP)",
        worst <= 1e-8 and worst_pairwise <= 1e-8 and elapsed < 60,
        f"worst {worst:.2e}, pairwise {worst_pairwise:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_pushforward_inequalities():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst_upper = 0.0
    worst_lower = 0.0
    for t in range(50):
        s = Euclidean(1 + t % 2)
        p = (1, 2, 3)[t % 3]
        ens = _random_ensemble(rng, s, 2 + t % 2, 3)
        gamma = solve_multimarginal(s, p, ens)
        nu = pushforward_barycenter(ens, gamma)
        upper = ensemble_objective(s, p, ens, nu)
        worst_upper = max(worst_upper, upper - gamma.objective)
        for _ in range(100):
            cand = _random_measure(rng, s, 6)
            value = ensemble_objective(s, p, ens, cand)
            worst_lower = max(worst_lower, gamma.objective - value)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4: pushforward barycenter inequalities on 50 instances",
        worst_upper <= 1e-8 and worst_lower <= 1e-8 and elapsed < 300,
        f"upper slack {worst_upper:.2e}, lower slack {worst_lower:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_1d_quantile_average_barycenter():
    rng = np.random.default_rng(105)
    line = Euclidean(1)
    t0 = time.perf_counter()
    worst = 0.0
    max_n = {2: 20, 3: 12, 4: 7}
    for t in range(30):
        J = 2 + t % 3
        n = int(rng.integers(2, max_n[J] + 1))
        measures = [
            DiscreteMeasure(line, 2 * rng.normal(size=(n, 1)), np.full(n, 1.0 / n))
            for _ in range(J)
        ]
        lam = rng.random(J) + 0.1
        lam /= lam.sum()
        ens = MeasureEnsemble(measures, lam)
        result = barycenter_finite(line, 2, ens)
        stacked = np.stack([np.sort(m.atoms.ravel()) for m in measures])
        oracle = DiscreteMeasure(line, (lam @ stacked)[:, None], np.full(n, 1.0 / n))
        worst = max(worst, abs(result.objective - ensemble_objective(line, 2, ens, oracle)))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5: 1D p=2 barycenter vs quantile-average oracle",
        worst <= 1e-8 and elapsed < 120,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_empirical_consistency():
    line = Euclidean(1)
    template = DiscreteMeasure(
        line, np.linspace(0.0, 1.0, 20)[:, None], np.full(20, 1.0 / 20)
    )
    spec = DeformationSpec(
        "translation",
        {"offset": {"dist": "uniform", "low": -0.3, "high": 0.3}},
        seed=606,
    )
    ens = generate_deformation_ensemble(template, spec, 3)
    cfg = ExperimentConfig(
        framework="empirical_sampling",
        p=2,
        seed=2024,
        sizes=[10, 100, 1000],
        ensemble=ens,
        replications=20,
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    m10 = report.median_dist(10)
    m1000 = report.median_dist(1000)
    ok = m1000 < 0.5 * m10 and m1000 < 0.1 and elapsed < 600
    _report(
        "criterion 6: empirical-sampling consistency (median shrinkage)",
        ok,
        f"median n=10 {m10:.4f}, n=1000 {m1000:.4f}, {elapsed:.1f}s",
    )


def test_criterion_7_equivariance_suite():
    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    worst_shift = 0.0
    worst_scale = 0.0
    for t in range(50):
        s = Euclidean(1 + t % 2)
        # barycenter translation equivariance at p=2
        ens = _random_ensemble(rng, s, 2, 3)
        v = rng.normal(size=s.dim)
        shifted = MeasureEnsemble(
            [pushforward(m, lambda a: a + v) for m in ens.measures], ens.lam
        )
        b0 = barycenter_finite(s, 2, ens).measure
        b1 = barycenter_finite(s, 2, shifted).measure
        moved = pushforward(b0, lambda a: a + v)
        if moved.n_atoms == b1.n_atoms:
            worst_shift = max(
                worst_shift,
                float(np.max(np.abs(moved.atoms - b1.atoms))),
                float(np.max(np.abs(moved.weights - b1.weights))),
            )
        else:
            worst_shift = np.inf
        # W_p scaling homogeneity
        p = (1, 2, 3)[t % 3]
        mu = _random_measure(rng, s, 8)
        nu = _random_measure(rng, s, 8)
        factor = float(rng.uniform(0.2, 4.0))
        base = wasserstein(s, p, mu, nu)[0]
        scaled = wasserstein(
            s,
            p,
            pushforward(mu, lambda a: factor * a),
            pushforward(nu, lambda a: factor * a),
        )[0]
        denom = max(1.0, abs(factor * base))
        worst_scale = max(worst_scale, abs(scaled - factor * base) / denom)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7: translation equivariance and scaling homogeneity",
        worst_shift <= 1e-9 and worst_scale <= 1e-9 and elapsed < 60,
        f"shift {worst_shift:.2e}, scale {worst_scale:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_cli_determinism(tmp_path):
    a = DiscreteMeasure(Euclidean(1), [[0.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
    b = DiscreteMeasure(Euclidean(1), [[0.5], [3.0]], [0.5, 0.5])
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_measure(a, pa)
    save_measure(b, pb)
    pe = tmp_path / "ens.json"
    save_ensemble(MeasureEnsemble([a, b], [0.5, 0.5]), pe)
    cfg = {
        "framework": "empirical_sampling",
        "p": 2,
        "seed": 0,
        "sizes": [5, 10],
        "replications": 2,
        "ensemble": json.loads((tmp_path / "ens.json").read_text()),
    }
    pc = tmp_path / "cfg.json"
    pc.write_text(json.dumps(cfg))

    def run_all(tag):
        plan = tmp_path / f"plan_{tag}.json"
        bary = tmp_path / f"bary_{tag}.json"
        coup = tmp_path / f"coup_{tag}.json"
        mbary = tmp_path / f"mbary_{tag}.json"
        q = tmp_path / f"q_{tag}.json"
        csv_out = tmp_path / f"rep_{tag}.csv"
        assert main(["dist", "--in-a", str(pa), "--in-b", str(pb), "--plan", str(plan)]) == 0
        assert main(["bary", "--in", str(pe), "--out", str(bary)]) == 0
        assert main(["mmot", "--in", str(pe), "--out", str(coup), "--bary", str(mbary)]) == 0
        assert main(["variance", "--in", str(pe)]) == 0
        assert main(["quantize", "--in", str(pa), "--k", "2", "--out", str(q)]) == 0
        assert main(["experiment", "--config", str(pc), "--out", str(csv_out)]) == 0
        return [f.read_bytes() for f in (plan, bary, coup, mbary, q, csv_out)]

    first = run_all("x")
    second = run_all("y")
    _report("criterion 8: CLI reruns are byte-identical", first == second)
