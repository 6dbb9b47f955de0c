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
from otbary.consistency import CSV_COLUMNS, config_from_dict
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
    # The order is checked before any row, on every space.
    plane = DiscreteMeasure(Euclidean(2), [[0.0, 0.0]], [1.0])
    for m in (t, plane):
        for p in (0.5, float("nan"), float("inf")):
            with pytest.raises(InvalidConfig, match="order p must be >= 1"):
                ExperimentConfig("growing_ensemble", p, 0, [1], MeasureEnsemble([m], [1.0]))


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


def joint_row(ens, ref, p):
    """A line row computed anew from one refinement over the row's and the
    reference's members: dist_to_ref, ensemble_dist and the objective."""
    Q, width, _ = consistency._line_quantiles([*ens.measures, *ref.measures])
    Qa, Qb = Q[: ens.size], Q[ens.size :]
    if p == 2:
        F, F_ref = ens.lam @ Qa, ref.lam @ Qb
        objective = float(width @ (ens.lam @ (Qa - F) ** 2))
    else:
        F, objs = consistency._quantile_means(p, ens.lam, Qa)
        F_ref = consistency._quantile_means(p, ref.lam, Qb)[0]
        F, F_ref = consistency._monotone(p, F), consistency._monotone(p, F_ref)
        objective = float(width @ objs)
    dist = float(width @ np.abs(F - F_ref) ** p) ** (1.0 / p)
    cost = consistency._quantile_costs(p, Qa, Qb, width)
    return dist, consistency._outer_distance(p, cost, ens.lam, ref.lam), objective


def _wide_ensemble(seed):
    rng = np.random.default_rng(seed)
    J, n = int(rng.integers(2, 12)), int(rng.integers(3, 12))
    lam = rng.dirichlet(np.ones(J))
    return MeasureEnsemble([
        DiscreteMeasure(Euclidean(1), rng.normal(size=(n, 1)), rng.dirichlet(np.ones(n)))
        for _ in range(J)
    ], lam)


# Three shifted 20-atom grids sampled up to n = 1000, as in the benchmark,
# and nine members of ten atoms: refinements of 60 to over 100 intervals.
# On the second, at n = 50, lam_ref @ Q_ref read at the row's intervals
# misses lam_ref @ Q_b in the last bit: a matrix product's bits can depend
# on a column's place in it.
GRIDS = MeasureEnsemble(
    [DiscreteMeasure(Euclidean(1), np.linspace(0.0, 1.0, 20)[:, None] + s, np.full(20, 0.05))
     for s in (-0.2, 0.05, 0.25)],
    np.full(3, 1 / 3),
)


@given(cfg=line_experiments())
@settings(max_examples=100, deadline=None)
@example(cfg=ExperimentConfig("empirical_sampling", 1.5, 11, [100, 1000], GRIDS))
@example(cfg=ExperimentConfig("empirical_sampling", 2, 50, [10, 50], _wide_ensemble(50)))
def test_line_rows_equal_a_refinement_built_anew(cfg):
    # The rows read the reference's side off one build per experiment;
    # bit for bit, that is the row computed from a refinement of all its
    # and the reference's members, built anew.
    for row in run_experiment(cfg).rows:
        ens = row_ensemble(cfg, row.size, row.replication)
        assert (row.dist_to_ref, row.ensemble_dist, row.objective) == joint_row(
            ens, cfg.ensemble, cfg.p
        )


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
    side = consistency._LineReference(cfg.ensemble, cfg.p, 0)
    ref = side.row(cfg.ensemble, True)[3]
    for row in run_experiment(cfg).rows:
        ens = row_ensemble(cfg, row.size, row.replication)
        bary = side.row(ens, True)[3]
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
    # coupling off its marginals fails solve_multimarginal: the row's own
    # refinement of its members against the reference's points, and the
    # reference's refinement, built once for all rows.  The reference's
    # points start with those of staircase._BOUNDS, a row's with -inf.
    entries = consistency._entries
    short_side = []

    def short(refinement):
        idx, width = entries(refinement)
        if ("row" if refinement[1][0] == -np.inf else "reference") in short_side:
            width = width - np.eye(1, width.shape[0]).ravel() * 1e-8
        return idx, width

    monkeypatch.setattr(consistency, "_entries", short)
    ens = random_ensemble(rng, line, 3, max_atoms=6)
    for framework, sizes, side in [
        ("empirical_sampling", [5, 10], "row"), ("empirical_sampling", [5, 10], "reference"),
        ("growing_ensemble", [1, 3], "reference"),
    ]:
        short_side[:] = [side]
        rows = run_experiment(ExperimentConfig(framework, 2, 0, sizes, ens)).rows
        assert all(r.error.startswith("NumericalFailure") for r in rows)
        assert all(r.dist_to_ref is None for r in rows)
    short_side.clear()
    assert all(r.error == "" for r in run_experiment(ExperimentConfig(framework, 2, 0, sizes, ens)).rows)


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


# A small line ensemble whose rows, at each order and in both frameworks,
# are pinned to the bytes the experiment wrote before the reference side
# was built once per experiment.
PINNED_ENSEMBLE = MeasureEnsemble([
    DiscreteMeasure(Euclidean(1), [[0.0], [1.0], [2.5]], [0.2, 0.5, 0.3]),
    DiscreteMeasure(Euclidean(1), [[0.5], [2.0]], [0.6, 0.4]),
    DiscreteMeasure(Euclidean(1), [[-1.0], [0.25], [1.5], [3.0]], [0.1, 0.2, 0.3, 0.4]),
], [0.5, 0.3, 0.2])
PINNED_CONFIGS = {"empirical_sampling": ([4, 16], 2), "growing_ensemble": ([1, 2, 3], 1)}
PINNED_LINE_ROWS = {
    ("empirical_sampling", 1): [
        "4,0,0.27500000000000002,0.3775,0.38749999999999996",
        "4,1,0.20000000000000004,0.32499999999999996,0.27499999999999997",
        "16,0,0.26250000000000007,0.24437499999999998,0.39687499999999998",
        "16,1,0.14374999999999996,0.23749999999999993,0.29999999999999999",
    ],
    ("empirical_sampling", 1.5): [
        "4,0,0.38704599860685435,0.57947357975694391,0.29531688841922005",
        "4,1,0.39410079624011912,0.52495164237566161,0.16678071091478086",
        "16,0,0.31373422749197799,0.42625879653860532,0.35553569255229067",
        "16,1,0.27056113136808191,0.42299995581523059,0.25491122351731593",
    ],
    ("empirical_sampling", 2): [
        "4,0,0.41457809879442503,0.7271519786124494,0.23937499999999995",
        "4,1,0.47169905660283029,0.62549980015984019,0.10499999999999998",
        "16,0,0.3646488036453705,0.56540914389493202,0.34640624999999992",
        "16,1,0.35750874115187731,0.56596157113358847,0.2228125",
    ],
    ("empirical_sampling", 3): [
        "4,0,0.49728388988771405,0.82179657648770865,0.16571924841377883",
        "4,1,0.63091234755074865,0.80926723345664553,0.045504271437036579",
        "16,0,0.43650780881634366,0.73100443455321651,0.35451156519257121",
        "16,1,0.4887374690933764,0.76072551620839945,0.19395363701245777",
    ],
    ("growing_ensemble", 1): [
        "1,0,0.050000000000000017,0.30499999999999988,0",
        "2,0,0.050000000000000017,0.15499999999999992,0.20624999999999991",
        "3,0,0,0,0.30499999999999988",
    ],
    ("growing_ensemble", 1.5): [
        "1,0,0.18427119254198462,0.40730589506010956,0",
        "2,0,0.15509835427131283,0.28507285700718732,0.13447570152642332",
        "3,0,0,0,0.22662822764398777",
    ],
    ("growing_ensemble", 2): [
        "1,0,0.25248762345905185,0.48989794855663549,0",
        "2,0,0.1697884713400766,0.39921798556678267,0.076171874999999958",
        "3,0,0,0,0.17624999999999993",
    ],
    ("growing_ensemble", 3): [
        "1,0,0.3757723513501286,0.64432937127104861,0",
        "2,0,0.23266183116774111,0.59001113164863683,0.025304098997741147",
        "3,0,0,0,0.12203314070706708",
    ],
}


@pytest.mark.parametrize("framework, p", PINNED_LINE_ROWS)
def test_line_experiment_bytes_are_pinned(tmp_path, framework, p):
    sizes, reps = PINNED_CONFIGS[framework]
    cfg = ExperimentConfig(framework, p, 7, sizes, PINNED_ENSEMBLE, replications=reps)
    run_experiment(cfg).to_csv(tmp_path / "r.csv")
    lines = [",".join(CSV_COLUMNS)] + [f"{framework},{row},," for row in PINNED_LINE_ROWS[framework, p]]
    assert (tmp_path / "r.csv").read_bytes() == "".join(f"{x}\r\n" for x in lines).encode()


@pytest.mark.parametrize("framework", ["empirical_sampling", "growing_ensemble", "deformation"])
@pytest.mark.parametrize("p", [1, 1.5, 3])
def test_line_experiment_makes_one_reference_pass(monkeypatch, framework, p):
    # At p != 2 each row makes one Fréchet pass, its own, and the reference
    # makes one for the whole experiment: R rows, R + 1 passes.  A prefix
    # experiment builds one refinement, the reference's, for every row.
    counts = {"frechet_means": 0, "_refinement": 0}

    def counted(name):
        inner = getattr(consistency, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(consistency, name, counted(name))
    sizes, reps = PINNED_CONFIGS.get(framework, PINNED_CONFIGS["growing_ensemble"])
    cfg = ExperimentConfig(framework, p, 7, sizes, PINNED_ENSEMBLE, replications=reps + 1)
    rows = run_experiment(cfg).rows
    assert all(r.error == "" for r in rows)
    assert counts["frechet_means"] == len(rows) + 1
    prefix = framework != "empirical_sampling"
    assert counts["_refinement"] == (1 if prefix else len(rows) + 1)
