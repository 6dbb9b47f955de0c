import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otbary import (
    Euclidean,
    MetricMatrix,
    NonConvergence,
    UnsupportedSpace,
    frechet,
    frechet_means,
    frechet_objective,
)
from otbary.frechet import CHUNK_ENTRIES, TIE_TOL, product_costs
from otbary.multimarginal import _index_grid
from otbary.spaces import midpoint
from conftest import GRID_GRAPH, indexed


def test_objective_cases(line):
    assert frechet_objective(line, 2, [[3.0]], [1.0], [3.0]) == 0.0
    assert frechet_objective(line, 2, [[0.0], [2.0]], [0.5, 0.5], [1.0]) == pytest.approx(1.0)
    assert frechet_objective(line, 1, [[0.0], [2.0]], [0.5, 0.5], [1.0]) == pytest.approx(1.0)


def _mean(space, p, pts, lam):
    # The point, objective and iterations of one tuple.
    x, f, it = frechet_means(space, p, lam, *indexed([pts]))
    return x[0], f[0], it[0]


def test_p2_closed_form(plane):
    x, _, it = _mean(plane, 2, [[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
    assert np.allclose(x, [1.0, 0.0])
    assert it == 0


def test_p2_weighted_line(line):
    x, _, _ = _mean(line, 2, [[0.0], [1.0], [5.0]], [0.2, 0.3, 0.5])
    assert x[0] == pytest.approx(2.8)


def test_p1_equilateral_triangle(plane):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    x, _, _ = _mean(plane, 1, pts, np.full(3, 1 / 3))
    centroid = pts.mean(axis=0)
    assert np.allclose(x, centroid, atol=1e-8)


def test_p1_majority_anchor(line):
    # weight > 1/2 on one point makes it the median
    x, _, _ = _mean(line, 1, [[0.0], [1.0], [2.0]], [0.6, 0.2, 0.2])
    assert x[0] == pytest.approx(0.0, abs=1e-9)


def test_general_p_matches_probe_minimum(rng, plane):
    for p in (1.5, 3.0):
        pts = rng.normal(size=(5, 2))
        lam = rng.random(5)
        lam /= lam.sum()
        _, f, _ = _mean(plane, p, pts, lam)
        for probe in rng.normal(size=(100, 2)):
            assert f <= frechet_objective(plane, p, pts, lam, probe) + 1e-9
        for x in pts:
            assert f <= frechet_objective(plane, p, pts, lam, x) + 1e-9


def test_determinism(rng, plane):
    pts = rng.normal(size=(6, 2))
    lam = np.full(6, 1 / 6)
    a, _, _ = _mean(plane, 1.7, pts, lam)
    b, _, _ = _mean(plane, 1.7, pts, lam)
    assert np.array_equal(a, b)


def test_translation_equivariance(rng, plane):
    pts = rng.normal(size=(4, 2))
    lam = np.array([0.1, 0.2, 0.3, 0.4])
    v = np.array([5.0, -2.0])
    for p in (1, 2, 2.5):
        a, _, _ = _mean(plane, p, pts, lam)
        b, _, _ = _mean(plane, p, pts + v, lam)
        assert np.allclose(b, a + v, atol=1e-8)


def test_midpoint_consistency(rng, plane):
    a, b = rng.normal(size=(2, 2))
    x, _, _ = _mean(plane, 2, [a, b], [0.5, 0.5])
    assert np.allclose(x, midpoint(plane, a, b))


def test_metric_matrix_argmin_and_tiebreak():
    d = np.array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    )
    s = MetricMatrix(d)
    x, _, _ = _mean(s, 2, [0, 2], [0.5, 0.5])
    assert x == 1  # middle point: objective 1 beats 2 at the ends
    # symmetric two-point tie breaks toward the smaller label
    t, _, _ = _mean(s, 1, [0, 2], [0.5, 0.5])
    assert t == 0


def _column_gather_kernel(space, pts, lam, p):
    # The metric kernel as it was before the per-member tables: one
    # (n_points x rows) column gather and power per member.
    objs = np.zeros((space.n_points, pts.shape[0]))
    for j in range(pts.shape[1]):
        objs += lam[j] * space.dist[:, pts[:, j]] ** p
    label = (objs <= objs.min(axis=0) + TIE_TOL).argmax(axis=0)
    return label, objs[label, np.arange(pts.shape[0])]


def test_metric_tables_match_the_column_gather():
    # Integer distances on a 7 x 7 grid graph tie often; labels, costs and
    # the tie rule must all be bit-identical.
    rc = np.indices((7, 7)).reshape(2, -1).T
    graph = MetricMatrix(np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2).astype(float))
    rng = np.random.default_rng(5)
    for trial in range(60):
        J = int(rng.integers(1, 5))
        p = (1, 2, 3, 1.5)[trial % 4]
        lam = np.full(J, 1.0 / J) if trial % 3 == 0 else rng.dirichlet(np.ones(J))
        # A few labels per member, as in a multi-marginal product.
        labels = [rng.choice(49, size=int(rng.integers(1, 8)), replace=False) for _ in range(J)]
        idx = np.stack([rng.integers(len(a), size=300) for a in labels], axis=1)
        tuples = np.stack([a[idx[:, j]] for j, a in enumerate(labels)], axis=1)
        points, objs, iters = frechet_means(graph, p, lam, labels, idx)
        label, cost = _column_gather_kernel(graph, tuples, lam, p)
        assert np.array_equal(points, label)
        assert np.array_equal(objs, cost)
        assert not iters.any()


def test_general_p_stops_at_float_resolution(line):
    # A p = 3 pair on which Armijo steps of ~1e-10 used to pass with an
    # unchanged objective, so the descent cycled until its iteration cap.
    a, b = 1.3035283997533655, 0.2839822578345439
    lam = np.array([0.5963300444688094, 0.40366995553119056])
    x, _, it = _mean(line, 3, [[a], [b]], lam)
    assert it < 1000
    s1, s2 = np.sqrt(lam)
    assert abs(x[0] - (s1 * a + s2 * b) / (s1 + s2)) <= 1e-9


# ---------------------------------------------------------------------------
# The batched kernel, checked from outside: a first-order certificate and a
# derivative-free minimizer recomputed here, and batch independence.
# ---------------------------------------------------------------------------

# Coordinates of magnitude 0 or above 1e-100, so differences of distinct
# atoms stay far above 1e-154, where squared distances underflow.
COORDS = st.floats(-10.0, 10.0).filter(lambda v: v == 0 or abs(v) > 1e-100)
WEIGHTS = st.floats(0.01, 1.0)


@st.composite
def frechet_tuples(draw):
    """(p, J x d atoms, weights) over general, coincident, collinear,
    near-atom and close-pair tuples."""
    d = draw(st.integers(1, 3))
    J = draw(st.integers(2, 5))
    p = draw(st.sampled_from([1.0, 1.5, 3.0]))
    kind = draw(st.sampled_from(["general", "coincident", "collinear", "near-atom", "close-pair"]))
    base = np.array(draw(st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=J, max_size=J)))
    lam = np.array(draw(st.lists(WEIGHTS, min_size=J, max_size=J)))
    if kind == "coincident":
        pts = base[draw(st.lists(st.integers(0, J - 1), min_size=J, max_size=J))]
    elif kind == "collinear":
        t = np.array(draw(st.lists(COORDS, min_size=J, max_size=J)))
        pts = base[0] + t[:, None] * base[1]
    elif kind == "near-atom":
        # Weight atom 0 just under (or at) the pull of the others, so the
        # median sits next to it.
        pts = base
        diff = pts[1:] - pts[0]
        dist = np.linalg.norm(diff, axis=1)
        if np.all(dist > 0):
            pull = np.linalg.norm((lam[1:, None] * diff / dist[:, None]).sum(axis=0))
            gap = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
            lam[0] = max(pull * (1.0 - gap), 1e-3)
    elif kind == "close-pair":
        # Atom 1 within 1e-6 .. 1e-12 of atom 0, the canonical merge scale.
        pts = base.copy()
        v = np.array(draw(st.lists(COORDS, min_size=d, max_size=d)))
        if np.linalg.norm(v) > 0:
            pts[1] = pts[0] + draw(st.sampled_from([1e-6, 1e-9, 1e-12])) * v / np.linalg.norm(v)
    else:
        pts = base
    return p, pts, lam / lam.sum()


def _f(pts, lam, p, x):
    return float(lam @ np.linalg.norm(pts - x, axis=1) ** p)


def _gradient(pts, lam, p, x):
    diff = x - pts
    d = np.linalg.norm(diff, axis=1)
    on = d == 0
    coef = np.zeros_like(d)
    coef[~on] = p * lam[~on] * d[~on] ** (p - 2)
    return (coef[:, None] * diff).sum(axis=0)


def _certificate(pts, lam, p, x):
    """(value, bound): the subgradient slack at an atom (p = 1), else the
    gradient norm.

    Off the atoms the bound is 1e-8 plus how far the gradient moves when x
    moves 4 ulps along an axis: next to an atom the gradient changes faster
    than that over one ulp, so no float point comes closer to zero.
    """
    diff = pts - x
    d = np.linalg.norm(diff, axis=1)
    on = d == 0
    if p == 1 and on.any():
        pull = np.linalg.norm((lam[~on, None] * diff[~on] / d[~on, None]).sum(axis=0))
        return pull - lam[on].sum(), 1e-12
    g = _gradient(pts, lam, p, x)
    step = 4 * np.spacing(np.abs(x).max())
    moved = [
        np.linalg.norm(_gradient(pts, lam, p, x + sign * step * e) - g)
        for e in np.eye(x.size)
        for sign in (-1, 1)
    ]
    return np.linalg.norm(g), 1e-8 + max(moved)


# A median about 1e-16 from an atom far from the origin, at p = 1.5: rounding
# to the absolute coordinates drops part of the step.  In the first the
# kept coordinate must be solved again given the dropped one; in the second
# the best float is the atom itself.
NEAR_ATOM_ROUNDING = [
    (
        np.array([[1.0, 0.0, 0.0], [1.0000000000009486, 0.0, 3.1622776601683792e-13]]),
        np.array([0.9900990099009901, 0.009900990099009901]),
    ),
    (
        np.array([[2.0, 0.0, 1.0], [2.0000000000008, 0.0, 1.0000000000006]]),
        np.array([0.984251968503937, 0.015748031496062992]),
    ),
]


@given(case=frechet_tuples(), others=st.lists(frechet_tuples(), max_size=6), where=st.integers(0, 6))
@settings(max_examples=200, deadline=None)
@example(case=(1.5, *NEAR_ATOM_ROUNDING[0]), others=[], where=0)
@example(case=(1.5, *NEAR_ATOM_ROUNDING[1]), others=[], where=0)
def test_kernel_is_certified_and_batch_independent(case, others, where):
    import scipy.optimize

    p, pts, lam = case
    space = Euclidean(pts.shape[1])
    x, f, _ = frechet_means(space, p, lam, *indexed(pts[None]))
    value, bound = _certificate(pts, lam, p, x[0])
    assert value <= bound
    nm = scipy.optimize.minimize(
        lambda y: _f(pts, lam, p, y), lam @ pts, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000, "maxfev": 40000},
    )
    ref = min([float(nm.fun)] + [_f(pts, lam, p, a) for a in pts])
    assert f[0] <= ref + 1e-12 * abs(ref)

    # The same tuple inside a batch of others, refilled to its shape, that
    # converge after different numbers of iterations.
    batch = [np.resize(o[1], pts.shape) for o in others]
    where = min(where, len(batch))
    batch.insert(where, pts)
    bx, bf, bit = frechet_means(space, p, lam, *indexed(batch))
    _, _, it = frechet_means(space, p, lam, *indexed(pts[None]))
    assert np.array_equal(bx[where], x[0]) and bf[where] == f[0] and bit[where] == it[0]


def test_anchor_returns_the_atom_exactly(plane):
    # Atom 0 carries 0.55 against a pull of |0.25 u_1 + 0.2 u_2| < 0.45.
    pts = np.array([[0.3, -1.7], [2.9, 0.4], [-1.1, 2.6]])
    lam = np.array([0.55, 0.25, 0.2])
    x, f, it = _mean(plane, 1, pts, lam)
    assert np.array_equal(x, pts[0])
    assert it < 10
    assert f == frechet_objective(plane, 1, pts, lam, pts[0])


def test_iteration_cap_raises(plane, monkeypatch):
    # No atom is the median: at (1, 3) the others pull with 0.51 > 0.4.
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
    lam = np.array([0.3, 0.3, 0.4])
    for p in (1, 3):
        assert _mean(plane, p, pts, lam)[2] > 2
    monkeypatch.setattr(frechet, "MAX_ITER", 2)
    for p in (1, 3):
        with pytest.raises(NonConvergence):
            _mean(plane, p, pts, lam)


# ---------------------------------------------------------------------------
# The cost tensor of the multi-marginal LP against the per-tuple pass.
# ---------------------------------------------------------------------------

def _pass_costs(space, p, lam, atoms):
    shape = tuple(len(a) for a in atoms)
    return frechet_means(space, p, lam, atoms, _index_grid(shape))[1].reshape(shape)


def _member_weights(draw, J):
    lam = np.array(draw(st.lists(WEIGHTS, min_size=J, max_size=J)))
    zero = draw(st.integers(-1, J - 1))  # a member of weight 0, or none
    if zero >= 0 and J > 1:
        lam[zero] = 0.0
    return lam


@st.composite
def euclidean_products(draw):
    """Atoms of J = 2-4 members in R^2 or R^3, some of them shared between
    members (coincident atoms), with arbitrary or quarter-integer
    coordinates; possibly one member of weight 0."""
    d = draw(st.sampled_from([2, 3]))
    J = draw(st.integers(2, 4))
    coord = draw(st.sampled_from([COORDS, st.integers(-8, 8).map(lambda k: k / 4)]))
    point = st.lists(coord, min_size=d, max_size=d)
    pool = draw(st.lists(point, min_size=1, max_size=3))
    atoms = [
        np.array(draw(st.lists(st.one_of(point, st.sampled_from(pool)), min_size=1, max_size=5)))
        for _ in range(J)
    ]
    return atoms, _member_weights(draw, J)


@given(case=euclidean_products())
@settings(max_examples=200, deadline=None)
def test_p2_product_costs_match_the_frechet_pass(case):
    atoms, lam = case
    space = Euclidean(atoms[0].shape[1])
    C = product_costs(space, 2, lam, atoms)
    expected = _pass_costs(space, 2, lam, atoms)
    assert np.all(np.abs(C - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
    assert np.all(C >= 0)


# A metric with irrational distances next to the integer grid graph, whose
# objectives tie often.
_PLANAR_POINTS = np.random.default_rng(3).normal(size=(20, 2))
PLANAR_METRIC = MetricMatrix(
    np.linalg.norm(_PLANAR_POINTS[:, None] - _PLANAR_POINTS[None], axis=2)
)


@st.composite
def metric_products(draw):
    """Labels of J = 1-4 members on the grid graph or the planar metric,
    possibly shared between members, and a block size from one tuple per
    block (no broadcast) to the default."""
    space = draw(st.sampled_from([GRID_GRAPH, PLANAR_METRIC]))
    J = draw(st.integers(1, 4))
    label = st.integers(0, space.n_points - 1)
    atoms = [
        np.array(draw(st.lists(label, min_size=1, max_size=6, unique=True))) for _ in range(J)
    ]
    chunk = draw(st.sampled_from([1, space.n_points, 7 * space.n_points, CHUNK_ENTRIES]))
    return space, atoms, _member_weights(draw, J), chunk


@given(case=metric_products(), p=st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_metric_product_costs_are_the_frechet_pass_bit_for_bit(case, p):
    space, atoms, lam, chunk = case
    with mock.patch.object(frechet, "CHUNK_ENTRIES", chunk):
        C = product_costs(space, p, lam, atoms)
    assert np.array_equal(C, _pass_costs(space, p, lam, atoms))


def test_product_costs_memory_at_the_product_cap(plane):
    # J = 3 members of 100 atoms: 10^6 tuples, an 8 MB tensor.
    rng = np.random.default_rng(20150612)
    lam = np.full(3, 1 / 3)
    tensor = 8 * 10**6

    def peak(space, p, atoms):
        tracemalloc.start()
        try:
            C = product_costs(space, p, lam, atoms)
            return C, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    C, used = peak(plane, 2, [rng.normal(size=(100, 2)) for _ in range(3)])
    assert C.shape == (100, 100, 100) and used < 3 * tensor
    rc = np.indices((12, 12)).reshape(2, -1).T
    graph = MetricMatrix(np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2).astype(float))
    labels = [np.sort(rng.choice(144, size=100, replace=False)) for _ in range(3)]
    C, used = peak(graph, 1, labels)
    # The tensor, one block of CHUNK_ENTRIES floats, and what does not grow
    # with the product: the member tables (3 x 100 x 144 floats, 0.35 MB)
    # and a few floats per tuple of a block, well inside a second chunk.
    assert C.shape == (100, 100, 100) and used < tensor + 2 * 8 * CHUNK_ENTRIES


def test_frechet_means_gather_a_chunk_at_a_time(plane):
    # The pass over the whole 100^3 product in R^2 at p = 2.  Gathering the
    # tuples a chunk at a time keeps it to the outputs (points, objectives,
    # iterations: N (d + 2) floats) and the working set of one chunk: its
    # tuples and about five more arrays of that size (the tuples relative to
    # an atom, and the differences and squares that give the objectives).
    # One (N, J, d) array of the tuples would take 48 MB on its own.
    rng = np.random.default_rng(20150612)
    atoms = [rng.normal(size=(100, 2)) for _ in range(3)]
    idx = _index_grid((100, 100, 100))
    N = idx.shape[0]
    tracemalloc.start()
    try:
        x, f, _ = frechet_means(plane, 2, np.full(3, 1 / 3), atoms, idx)
        used = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (N, 2) and f.shape == (N,)
    assert used < N * (2 + 2) * 8 + 8 * 8 * CHUNK_ENTRIES


def test_euclidean_product_costs_need_p_2(plane):
    with pytest.raises(UnsupportedSpace):
        product_costs(plane, 1, [0.5, 0.5], [np.zeros((1, 2)), np.ones((2, 2))])


def test_p3_start_on_an_atom_takes_a_gradient_step(plane):
    # The weighted mean of (0, 0), (2, 0), (-1, 0) with lam = (1/2, 1/6, 1/3)
    # is the first atom, where f has no Hessian, so the iteration's first
    # step is a gradient step.  On (0, 2), f'(x) = 2x^2 + 4x - 1,
    # whose root is sqrt(6) / 2 - 1.
    x, _, it = _mean(plane, 3, [[0.0, 0.0], [2.0, 0.0], [-1.0, 0.0]], [1 / 2, 1 / 6, 1 / 3])
    assert it > 1
    assert abs(x[0] - (np.sqrt(6) / 2 - 1)) <= 1e-12 and x[1] == 0.0


def test_p1_start_on_an_atom_takes_a_weiszfeld_step(plane, monkeypatch):
    # The weighted mean is the first atom, whose pull exceeds its weight by
    # 1e-10 only, past the anchor test's slack: the Vardi-Zhang step off it
    # lowers f by about 1e-20, below f's resolution, so the row starts on
    # the atom and its first step is the iteration's Weiszfeld step.  On the
    # x axis near 0, f'(x) = -eps + 2 u x / sqrt(1 + x^2) with
    # eps = w - lam_0, so the median is (t / sqrt(1 - t^2), 0), t = eps / 2u.
    # The atom tests take one Weiszfeld step per atom; any more come from
    # the iteration.
    calls = []
    steps = frechet._weiszfeld_steps
    monkeypatch.setattr(frechet, "_weiszfeld_steps", lambda *a: calls.append(1) or steps(*a))
    w, u = 0.25, 0.125
    lam = [w - 1e-10, 2 * w, w, u, u]
    pts = [[0.0, 0.0], [1.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    x, _, _ = _mean(plane, 1, pts, lam)
    assert len(calls) > len(pts)
    t = (w - lam[0]) / (2 * u)
    median = t / np.sqrt(1 - t * t)
    assert abs(x[0] - median) <= 1e-9 * median and x[1] == 0.0
