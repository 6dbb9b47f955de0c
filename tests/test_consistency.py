import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otbary import (
    DeformationSpec,
    DiscreteMeasure,
    Euclidean,
    ExperimentConfig,
    InvalidConfig,
    MeasureEnsemble,
    barycenter_finite,
    ensemble_distance,
    generate_deformation_ensemble,
    load_measure,
    run_experiment,
    sample_empirical,
    wasserstein,
)
from otbary import consistency
from otbary.consistency import config_from_dict
from conftest import LINE_ORDERS, embedded, line_measures, random_ensemble
from oracles import measures_equal


def uniform_template(line, n=8):
    return DiscreteMeasure(line, np.linspace(0.0, 1.0, n)[:, None], np.full(n, 1.0 / n))


def test_identity_deformations_copy_template(line):
    t = uniform_template(line)
    spec = DeformationSpec("identity", seed=0)
    ens = generate_deformation_ensemble(t, spec, 4)
    assert ens.size == 4
    for m in ens.measures:
        assert measures_equal(m, t)


def test_scaling_fixes_dirac(line):
    t = DiscreteMeasure(line, [[0.0]], [1.0])
    spec = DeformationSpec("scaling", {"factor": {"dist": "uniform", "low": 0.5, "high": 2.0}}, seed=1)
    ens = generate_deformation_ensemble(t, spec, 5)
    for m in ens.measures:
        assert measures_equal(m, t)


def test_balanced_two_point_translations(line):
    # shifts -c and +c in equal numbers: the p=2 barycenter recovers the
    # template, since 1D quantile functions average to the template's
    c = 0.25
    t = uniform_template(line, n=6)
    spec = DeformationSpec(
        "translation",
        {"offset": {"dist": "choice", "values": [[-c], [c]], "probs": [0.5, 0.5]}},
        seed=11,
    )
    # draw until balanced (J=2 with one each way, deterministic seed scan)
    for seed in range(50):
        ens = generate_deformation_ensemble(
            t, DeformationSpec("translation", spec.params, seed=seed), 2
        )
        shifts = [m.atoms[0, 0] - t.atoms[0, 0] for m in ens.measures]
        if abs(sum(shifts)) < 1e-12 and abs(shifts[0]) > 0:
            break
    else:
        pytest.fail("no balanced draw found")
    r = barycenter_finite(line, 2, ens)
    assert measures_equal(r.measure, t, tol=1e-9)


def test_deterministic_generation(line):
    t = uniform_template(line)
    spec = DeformationSpec("translation", {"offset": {"dist": "uniform", "low": -1, "high": 1}}, seed=3)
    a = generate_deformation_ensemble(t, spec, 3)
    b = generate_deformation_ensemble(t, spec, 3)
    for x, y in zip(a.measures, b.measures):
        assert np.array_equal(x.atoms, y.atoms)


def test_ensemble_distance_symmetry(rng, line):
    a = random_ensemble(rng, line, 3, max_atoms=4)
    b = random_ensemble(rng, line, 2, max_atoms=4)
    d1 = ensemble_distance(line, 2, a, b)
    d2 = ensemble_distance(line, 2, b, a)
    assert abs(d1 - d2) <= 1e-8
    assert ensemble_distance(line, 2, a, a) == pytest.approx(0.0, abs=1e-9)


@st.composite
def line_ensemble_pairs(draw):
    def ensemble():
        J = draw(st.integers(1, 4))
        measures = [draw(line_measures(max_atoms=10)) for _ in range(J)]
        lam = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=J, max_size=J)))
        return MeasureEnsemble(measures, lam / lam.sum())

    return ensemble(), ensemble()


@given(pair=line_ensemble_pairs(), p=st.sampled_from([1, 1.5, 2, 3]))
@settings(max_examples=100, deadline=None)
def test_batched_line_ensemble_distance_matches_per_pair_solves(pair, p):
    # The plane route solves every member pair with the transport simplex.
    a, b = pair
    batched = ensemble_distance(Euclidean(1), p, a, b)
    plane = [MeasureEnsemble([embedded(m) for m in e.measures], e.lam) for e in pair]
    per_pair = ensemble_distance(Euclidean(2), p, *plane)
    assert abs(batched - per_pair) <= 1e-12 * per_pair


def test_line_ensemble_distance_solves_one_transport(rng, line, monkeypatch):
    calls = []
    outer = consistency.solve_transport

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return outer(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a member pair went through wasserstein")

    monkeypatch.setattr(consistency, "solve_transport", counted)
    monkeypatch.setattr(consistency, "wasserstein", forbidden)
    a = random_ensemble(rng, line, 3, max_atoms=20)
    b = random_ensemble(rng, line, 4, max_atoms=20)
    ensemble_distance(line, 2, a, b)
    assert calls == [(3, 4)]


def test_config_validation(line):
    t = uniform_template(line)
    ens = MeasureEnsemble([t, t], [0.5, 0.5])
    with pytest.raises(InvalidConfig):
        ExperimentConfig("empirical_sampling", 2, 0, [10, 10], ens)
    for framework in ("empirical_sampling", "growing_ensemble"):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(framework, 2, 0, [0, 1], ens)
    with pytest.raises(InvalidConfig):
        ExperimentConfig("bogus", 2, 0, [10], ens)
    with pytest.raises(InvalidConfig):
        ExperimentConfig("empirical_sampling", 2, 0, [10], ens, replications=0)
    with pytest.raises(InvalidConfig, match="exceeds ensemble size"):
        ExperimentConfig("growing_ensemble", 2, 0, [1, 3], ens)


def test_growing_constant_sequence(line):
    t = uniform_template(line, n=4)
    ens = MeasureEnsemble([t, t, t], np.full(3, 1 / 3))
    cfg = ExperimentConfig("growing_ensemble", 2, 0, [1, 2, 3], ens)
    rep = run_experiment(cfg)
    for row in rep.rows:
        assert row.error == ""
        assert row.dist_to_ref == pytest.approx(0.0, abs=1e-9)
        assert row.ensemble_dist == pytest.approx(0.0, abs=1e-9)


def test_growing_full_size_exact(rng, line):
    ens = random_ensemble(rng, line, 4, max_atoms=3, uniform_lam=True)
    cfg = ExperimentConfig("growing_ensemble", 2, 0, [2, 4], ens)
    rep = run_experiment(cfg)
    by_size = {r.size: r for r in rep.rows}
    assert by_size[4].dist_to_ref == pytest.approx(0.0, abs=1e-9)
    assert by_size[4].dist_to_ref <= by_size[2].dist_to_ref + 1e-9


def test_empirical_degenerate_dirac(line):
    # one-atom members: sampling returns the member itself, distance 0
    a = DiscreteMeasure(line, [[0.0]], [1.0])
    b = DiscreteMeasure(line, [[1.0]], [1.0])
    ens = MeasureEnsemble([a, b], [0.5, 0.5])
    cfg = ExperimentConfig("empirical_sampling", 2, 0, [5], ens)
    rep = run_experiment(cfg)
    assert rep.rows[0].dist_to_ref == pytest.approx(0.0, abs=1e-12)


def test_empirical_determinism(line):
    t = uniform_template(line, n=5)
    spec = DeformationSpec("translation", {"offset": {"dist": "uniform", "low": -0.2, "high": 0.2}}, seed=5)
    ens = generate_deformation_ensemble(t, spec, 2)
    cfg = ExperimentConfig("empirical_sampling", 2, 7, [5, 20], ens, replications=2)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert [row.dist_to_ref for row in r1.rows] == [row.dist_to_ref for row in r2.rows]


def test_empirical_median_shrinks(line):
    t = uniform_template(line, n=8)
    spec = DeformationSpec("translation", {"offset": {"dist": "uniform", "low": -0.3, "high": 0.3}}, seed=2)
    ens = generate_deformation_ensemble(t, spec, 3)
    cfg = ExperimentConfig("empirical_sampling", 2, 21, [10, 200], ens, replications=5)
    rep = run_experiment(cfg)
    assert rep.median_dist(200) < rep.median_dist(10)


def test_config_from_dict_template_route(line):
    d = {
        "framework": "empirical_sampling",
        "p": 2,
        "seed": 0,
        "sizes": [5, 10],
        "replications": 2,
        "template": {
            "space": {"type": "euclidean", "dim": 1},
            "atoms": [[0.0], [1.0]],
            "weights": [0.5, 0.5],
        },
        "deformation": {"kind": "translation", "seed": 1, "count": 2,
                        "params": {"offset": {"dist": "uniform", "low": -0.1, "high": 0.1}}},
    }
    cfg = config_from_dict(d)
    assert cfg.ensemble.size == 2
    with pytest.raises(InvalidConfig):
        config_from_dict({**d, "sizes": [10, 5]})
    with pytest.raises(InvalidConfig):
        config_from_dict({k: v for k, v in d.items() if k not in ("template", "deformation")})


@st.composite
def line_experiments(draw):
    """An experiment config on the line at p in LINE_ORDERS: a reference of
    1-4 members drawn by ``line_measures`` and either framework, with random
    sizes, replications and seed.  Ensemble weights are floats or small
    integers; integers split the weight evenly often enough to tie p = 1
    medians."""
    J = draw(st.integers(1, 4))
    measures = [draw(line_measures(max_atoms=10)) for _ in range(J)]
    lam = np.asarray(draw(st.one_of(
        st.lists(st.floats(0.05, 1.0), min_size=J, max_size=J),
        st.lists(st.integers(1, 3).map(float), min_size=J, max_size=J),
    )))
    ref = MeasureEnsemble(measures, lam / lam.sum())
    framework = draw(st.sampled_from(["empirical_sampling", "growing_ensemble"]))
    top = 30 if framework == "empirical_sampling" else J
    sizes = sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=3)))
    return ExperimentConfig(framework, draw(st.sampled_from(LINE_ORDERS)),
                            draw(st.integers(0, 2**31)), sizes, ref,
                            replications=draw(st.integers(1, 2)))


def _close(a, b):
    return abs(a - b) <= 1e-12


def row_ensemble(cfg, size, rep):
    """The ensemble of the experiment row (size, rep), drawn as run_experiment
    draws it."""
    if cfg.framework == "empirical_sampling":
        members = [
            sample_empirical(mu, size, consistency._child_seed(cfg.seed, size, j, rep))
            for j, mu in enumerate(cfg.ensemble.measures)
        ]
        return MeasureEnsemble(members, cfg.ensemble.lam)
    lam = cfg.ensemble.lam[:size]
    return MeasureEnsemble(cfg.ensemble.measures[:size], lam / lam.sum())


@given(cfg=line_experiments())
@settings(max_examples=50, deadline=None)
def test_line_rows_match_per_row_barycenters(cfg):
    # Each row against the barycenter of its ensemble and of the reference,
    # their W_p and the ensemble distance, computed here one call each.
    # The barycenter is unique at p > 1 only, so dist_to_ref is compared
    # there.
    line, p = Euclidean(1), cfg.p
    ref = barycenter_finite(line, p, cfg.ensemble).measure
    for row in run_experiment(cfg).rows:
        assert row.error == ""
        ens = row_ensemble(cfg, row.size, row.replication)
        bary = barycenter_finite(line, p, ens)
        assert _close(row.objective, bary.objective)
        if p > 1:
            assert _close(row.dist_to_ref, wasserstein(line, p, bary.measure, ref)[0])
        assert _close(row.ensemble_dist, ensemble_distance(line, p, ens, cfg.ensemble))
        if p == 2:
            # The barycenter's quantile function is the lam-weighted
            # average of the members', a 1-Lipschitz map.
            assert row.dist_to_ref <= row.ensemble_dist * (1 + 1e-9) + 1e-15


# Four members whose p = 1 medians on the refinement's two halves are the
# atoms 2, then 1 (the medians there are [1, 2], then [1, 3]): only the
# running maximum is a quantile function.
FALLING_MEDIANS = MeasureEnsemble(
    [DiscreteMeasure(Euclidean(1), [[1.0]], [1.0]),
     DiscreteMeasure(Euclidean(1), [[0.0]], [1.0]),
     DiscreteMeasure(Euclidean(1), [[2.0], [5.0]], [0.5, 0.5]),
     DiscreteMeasure(Euclidean(1), [[3.0]], [1.0])],
    np.array([1.0, 2.0, 2.0, 1.0]) / 6,
)


@given(cfg=line_experiments())
@settings(max_examples=50, deadline=None)
@example(cfg=ExperimentConfig("growing_ensemble", 1, 0, [1, 2, 3, 4], FALLING_MEDIANS))
def test_line_distance_is_the_wp_of_its_barycenters(cfg):
    # dist_to_ref integrates |F - F_ref|^p, which is W_p only between
    # quantile functions: at p = 1 too, it is the W_p of the two
    # barycenters the rows build.
    line = Euclidean(1)
    ref = consistency._line_row(cfg.ensemble, cfg.ensemble, cfg.p, True)[3]
    for row in run_experiment(cfg).rows:
        ens = row_ensemble(cfg, row.size, row.replication)
        bary = consistency._line_row(ens, cfg.ensemble, cfg.p, True)[3]
        assert _close(row.dist_to_ref, wasserstein(line, cfg.p, bary, ref)[0])


@pytest.mark.parametrize("space, p, line_route", [
    (Euclidean(1), 2, True), (Euclidean(1), 1, True), (Euclidean(2), 2, False),
    (Euclidean(1), 3, True),
])
def test_experiment_route(rng, monkeypatch, space, p, line_route):
    # On the line, at every p, a row runs one transport solve, the outer
    # one of the ensemble distance, and no barycenter; elsewhere the
    # reference barycenter is computed once and each row computes its own.
    calls = {"barycenter_finite": 0, "wasserstein": 0, "solve_transport": 0}

    def counted(name):
        inner = getattr(consistency, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(consistency, name, counted(name))
    ens = random_ensemble(rng, space, 3, max_atoms=6)
    rows = run_experiment(ExperimentConfig("growing_ensemble", p, 0, [1, 2, 3], ens)).rows
    assert [r.error for r in rows] == ["", "", ""]
    if line_route:
        assert calls == {"barycenter_finite": 0, "wasserstein": 0, "solve_transport": 3}
    else:
        assert calls["barycenter_finite"] == 4
        assert calls["wasserstein"] >= 3


def test_line_row_checks_the_refinement(rng, line, monkeypatch):
    # A refinement whose widths miss a member's weights fails the row, as a
    # coupling off its marginals fails solve_multimarginal.
    entries = consistency._comonotone_entries

    def short(weights):
        idx, width = entries(weights)
        return idx, width - np.eye(1, width.shape[0]).ravel() * 1e-8

    monkeypatch.setattr(consistency, "_comonotone_entries", short)
    ens = random_ensemble(rng, line, 3, max_atoms=6)
    rows = run_experiment(ExperimentConfig("empirical_sampling", 2, 0, [5, 10], ens)).rows
    assert all(r.error.startswith("NumericalFailure") for r in rows)
    assert all(r.dist_to_ref is None for r in rows)


@pytest.mark.parametrize("framework, sizes", [
    ("empirical_sampling", [3, 10, 40]), ("growing_ensemble", [1, 2, 4]),
])
def test_line_artifacts_are_the_barycenters(rng, line, tmp_path, framework, sizes):
    # The barycenter a line row writes, built from its quantile function,
    # is barycenter_finite's measure.
    ens = random_ensemble(rng, line, 4, max_atoms=8)
    cfg = ExperimentConfig(framework, 2, 3, sizes, ens, replications=2)
    label = "n" if framework == "empirical_sampling" else "J"
    for row in run_experiment(cfg, keep_artifacts=str(tmp_path)).rows:
        assert row.error == ""
        written = load_measure(tmp_path / f"bary_{label}{row.size}_rep{row.replication}.json")
        expected = barycenter_finite(line, 2, row_ensemble(cfg, row.size, row.replication))
        assert measures_equal(written, expected.measure, tol=1e-12)
