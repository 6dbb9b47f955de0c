import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otbary import (
    DiscreteMeasure,
    Euclidean,
    MeasureEnsemble,
    MetricMatrix,
    NegativeWeight,
    WeightSumOutOfTolerance,
    pushforward,
    sample_empirical,
    wasserstein,
)
from otbary.measures import (
    MERGE_TOL,
    ensemble_from_dict,
    ensemble_to_dict,
    measure_from_dict,
    measure_to_dict,
)
from oracles import measures_equal


def test_validate_identity(line):
    m = DiscreteMeasure(line, [[0.0]], [1.0])
    out = DiscreteMeasure(line, m.atoms, m.weights)
    assert np.array_equal(out.atoms, m.atoms)
    assert out.weights[0] == 1.0


def test_validate_renormalizes(line):
    m = DiscreteMeasure(line, [[0.0], [1.0]], [0.5, 0.5000000001])
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_negative_weight_rejected(line):
    with pytest.raises(NegativeWeight):
        DiscreteMeasure(line, [[0.0], [1.0]], [0.7, -0.3])


def test_weight_sum_out_of_tolerance(line):
    with pytest.raises(WeightSumOutOfTolerance):
        DiscreteMeasure(line, [[0.0], [1.0]], [0.7, 0.4])


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_validate_idempotent(raw):
    line = Euclidean(1)
    w = np.asarray(raw) / np.sum(raw)
    m = DiscreteMeasure(line, np.arange(len(raw), dtype=float)[:, None], w)
    once = DiscreteMeasure(line, m.atoms, m.weights)
    again = DiscreteMeasure(line, once.atoms, once.weights)
    assert np.array_equal(again.weights, once.weights)


def test_merge_atoms_combines_duplicates(line):
    m = DiscreteMeasure(line, [[1.0], [0.0], [1.0]], [0.25, 0.5, 0.25])
    assert m.n_atoms == 2
    assert np.allclose(m.atoms.ravel(), [0.0, 1.0])
    assert np.allclose(m.weights, [0.5, 0.5])


def test_merge_atoms_metric_matrix():
    s = MetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    m = DiscreteMeasure(s, [1, 0, 1], [0.25, 0.5, 0.25])
    assert np.array_equal(m.atoms, [0, 1])
    assert np.allclose(m.weights, [0.5, 0.5])


def test_pushforward_translation(line):
    m = DiscreteMeasure(line, [[0.0], [1.0]], [0.5, 0.5])
    shifted = pushforward(m, lambda a: a + 3.0)
    assert np.allclose(shifted.atoms.ravel(), [3.0, 4.0])
    assert np.array_equal(shifted.weights, m.weights)


def test_pushforward_identity(plane, rng):
    m = DiscreteMeasure(plane, rng.normal(size=(5, 2)), np.full(5, 0.2))
    assert measures_equal(pushforward(m, lambda a: a), m)


def test_pushforward_composition_on_dirac(line):
    m = DiscreteMeasure(line, [[0.0]], [1.0])
    out = pushforward(m, lambda a: 2.0 * a + 1.0)
    assert np.allclose(out.atoms.ravel(), [1.0])


def test_sample_dirac(line):
    m = DiscreteMeasure(line, [[4.0]], [1.0])
    s = sample_empirical(m, 5, seed=1)
    assert measures_equal(s, m)


def test_sample_deterministic(line):
    m = DiscreteMeasure(line, [[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
    a = sample_empirical(m, 100, seed=9)
    b = sample_empirical(m, 100, seed=9)
    assert np.array_equal(a.atoms, b.atoms)
    assert np.array_equal(a.weights, b.weights)


@pytest.mark.parametrize(
    "n_atoms, n, seed",
    [(1, 5, 0), (3, 1, 4), (5, 7, 11), (20, 30, 2), (20, 1000, 21), (20, 1000, 8)],
)
def test_sample_counts_draws(line, n_atoms, n, seed):
    # Drawn atoms and count / n weights, recomputed from the generator alone
    src = np.random.default_rng(100 + seed)
    m = DiscreteMeasure(line, src.normal(size=(n_atoms, 1)), src.dirichlet(np.ones(n_atoms)))
    s = sample_empirical(m, n, seed=seed)
    draws = np.random.default_rng(seed).choice(m.n_atoms, size=n, p=m.weights)
    labels, counts = np.unique(draws, return_counts=True)
    assert s.atoms.tobytes() == m.atoms[labels].tobytes()
    assert s.weights.tobytes() == (counts / n).tobytes()


def test_sample_binomial_concentration(line):
    # Expected frequency 0.5 on atom 0; n=10^4 draws land within 0.02.
    m = DiscreteMeasure(line, [[0.0], [1.0]], [0.5, 0.5])
    s = sample_empirical(m, 10_000, seed=7)
    freq0 = s.weights[s.atoms.ravel() == 0.0].sum()
    assert abs(freq0 - 0.5) < 0.02


def test_sample_stays_on_support(line, rng):
    m = DiscreteMeasure(line, [[0.0], [1.5], [7.0]], [0.1, 0.4, 0.5])
    s = sample_empirical(m, 500, seed=3)
    assert set(s.atoms.ravel()) <= set(m.atoms.ravel())


def test_ensemble_requires_common_space(line, plane):
    a = DiscreteMeasure(line, [[0.0]], [1.0])
    b = DiscreteMeasure(plane, [[0.0, 0.0]], [1.0])
    with pytest.raises(Exception):
        MeasureEnsemble([a, b], [0.5, 0.5])


def test_measure_json_roundtrip(plane, rng):
    m = DiscreteMeasure(plane, rng.normal(size=(4, 2)), np.full(4, 0.25))
    blob = json.dumps(measure_to_dict(m))
    back = measure_from_dict(json.loads(blob))
    assert measures_equal(back, m, tol=1e-12)


def test_metric_measure_json_roundtrip():
    s = MetricMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]), labels=["a", "b"])
    m = DiscreteMeasure(s, [0, 1], [0.4, 0.6])
    back = measure_from_dict(json.loads(json.dumps(measure_to_dict(m))))
    assert measures_equal(back, m, tol=1e-12)


def test_ensemble_json_roundtrip(line):
    a = DiscreteMeasure(line, [[0.0]], [1.0])
    b = DiscreteMeasure(line, [[1.0], [2.0]], [0.5, 0.5])
    e = MeasureEnsemble([a, b], [0.3, 0.7])
    back = ensemble_from_dict(json.loads(json.dumps(ensemble_to_dict(e))))
    assert np.allclose(back.lam, e.lam)
    assert all(measures_equal(x, y) for x, y in zip(back.measures, e.measures))


# ---------------------------------------------------------------------------
# Canonical form: built from shuffled atoms with exact duplicates, near
# duplicates (within MERGE_TOL) and zero weights
# ---------------------------------------------------------------------------

POSITIVE = st.floats(0.01, 10.0)


@st.composite
def euclidean_atoms(draw):
    dim = draw(st.integers(1, 2))
    coord = st.floats(-5.0, 5.0, allow_subnormal=False)
    base = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=6))
    atoms, raw = [], []
    for a in base:
        atoms.append(a)
        raw.append(draw(POSITIVE))
        for _ in range(draw(st.integers(0, 3))):  # exact duplicates
            atoms.append(list(a))
            raw.append(draw(POSITIVE | st.just(0.0)))
        for _ in range(draw(st.integers(0, 2))):  # near duplicates
            shift = draw(st.floats(-9e-13, 9e-13))
            atoms.append([x + shift for x in a])
            raw.append(draw(POSITIVE | st.just(0.0)))
    for _ in range(draw(st.integers(0, 2))):  # zero-weight atoms of their own
        atoms.append(draw(st.lists(coord, min_size=dim, max_size=dim)))
        raw.append(0.0)
    fixed = DiscreteMeasure(Euclidean(dim), [[0.0] * dim, [1.0] * dim], [0.3, 0.7])
    return Euclidean(dim), np.asarray(atoms), np.asarray(raw), fixed


@st.composite
def metric_atoms(draw):
    n = draw(st.integers(2, 6))
    pts = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    space = MetricMatrix(np.abs(pts[:, None] - pts[None, :]))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    raw = draw(st.lists(POSITIVE | st.just(0.0), min_size=len(labels), max_size=len(labels)))
    labels.append(labels[0])  # at least one duplicate with a positive weight
    raw.append(draw(POSITIVE))
    fixed = DiscreteMeasure(space, [0, n - 1], [0.4, 0.6])
    return space, np.asarray(labels), np.asarray(raw), fixed


def reference_canonical(atoms, weights):
    """The merge rule as a plain loop over (atom, weight)-sorted atoms."""
    pts = atoms.reshape(len(atoms), -1)
    order = sorted(np.flatnonzero(weights > 0), key=lambda i: (tuple(pts[i]), weights[i]))
    firsts, sums = [], []
    for i in order:
        if firsts and np.max(np.abs(pts[i] - pts[firsts[-1]])) <= MERGE_TOL:
            sums[-1] += weights[i]
        else:
            firsts.append(i)
            sums.append(weights[i])
    sums = np.asarray(sums)
    total = sums.sum()
    return atoms[firsts], sums / total if abs(total - 1.0) > 1e-12 else sums


@given(
    case=st.one_of(euclidean_atoms(), metric_atoms()),
    p=st.sampled_from([1.0, 2.0]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_canonical_form_properties(case, p, data):
    space, atoms, raw, fixed = case
    # a sum off by up to 5e-10 is accepted and renormalized
    weights = raw / raw.sum() * (1.0 + data.draw(st.floats(-5e-10, 5e-10)))
    perm = np.asarray(data.draw(st.permutations(range(len(raw)))))
    m = DiscreteMeasure(space, atoms, weights)
    shuffled = DiscreteMeasure(space, atoms[perm], weights[perm])

    ref_atoms, ref_weights = reference_canonical(atoms, weights)
    assert m.atoms.tobytes() == ref_atoms.tobytes()
    assert m.weights.tobytes() == ref_weights.tobytes()

    keys = m.atoms[:, None] if isinstance(space, MetricMatrix) else m.atoms
    for a, b in zip(keys, keys[1:]):
        assert tuple(a) < tuple(b)
    assert np.all(m.weights > 0)

    again = DiscreteMeasure(m.space, m.atoms, m.weights)
    assert again.atoms.tobytes() == m.atoms.tobytes()
    assert again.weights.tobytes() == m.weights.tobytes()

    assert np.array_equal(shuffled.atoms, m.atoms)
    assert np.array_equal(shuffled.weights, m.weights)
    assert wasserstein(space, p, shuffled, fixed)[0] == wasserstein(space, p, m, fixed)[0]


def test_canonical_sums_long_groups_left_to_right(line):
    # One atom drawn 60 times plus shuffled near-duplicates of others: each
    # group must be summed in order, as a pairwise sum would change the bytes
    rng = np.random.default_rng(13)
    atoms = [[0.25]] * 60
    for x in (-1.0, 0.5, 3.0):
        atoms += [[x + s] for s in rng.uniform(0.0, 9e-13, size=15)]
    atoms = np.asarray(atoms)
    for weights in (np.full(len(atoms), 1.0 / len(atoms)), rng.dirichlet(np.ones(len(atoms)))):
        perm = rng.permutation(len(atoms))
        m = DiscreteMeasure(line, atoms[perm], weights[perm])
        ref_atoms, ref_weights = reference_canonical(atoms[perm], weights[perm])
        assert m.n_atoms == 4
        assert m.atoms.tobytes() == ref_atoms.tobytes()
        assert m.weights.tobytes() == ref_weights.tobytes()
