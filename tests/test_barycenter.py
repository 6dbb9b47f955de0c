import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from otbary import (
    DimensionMismatch,
    DiscreteMeasure,
    MeasureEnsemble,
    MetricMatrix,
    NumericalFailure,
    ProductSizeExceeded,
    barycenter_finite,
    barycenter_fixed_support,
    ensemble_objective,
    pushforward,
    quantize,
    variance,
    wasserstein,
)
from otbary import barycenter as bary_module
from otbary import multimarginal
from otbary.barycenter import _dirac_start, _fixed_support_lp
from otbary.cli import main
from otbary.measures import save_ensemble, save_measure
from otbary.spaces import as_atoms, pairwise_distances
from conftest import GRID_GRAPH, random_ensemble, random_measure, space_points, tensor_ensembles
from dense_simplex import solve_lp
from highs_oracle import HIGHS_OPTIONS
from oracles import measures_equal


def quantile_average_1d(space, measures, lam, n):
    """Oracle for 1D p=2 barycenters of uniform n-atom measures: the
    lam-average of sorted atom vectors, rank by rank."""
    stacked = np.stack([np.sort(m.atoms.ravel()) for m in measures])
    return DiscreteMeasure(space, (lam @ stacked)[:, None], np.full(n, 1.0 / n))


def test_ensemble_objective_zero(line, rng):
    mu = random_measure(rng, line, max_atoms=4)
    ens = MeasureEnsemble([mu, mu], [0.5, 0.5])
    assert ensemble_objective(line, 2, ens, mu) == pytest.approx(0.0, abs=1e-12)


def test_ensemble_objective_two_diracs(line):
    ens = MeasureEnsemble(
        [DiscreteMeasure(line, [[0.0]], [1.0]), DiscreteMeasure(line, [[2.0]], [1.0])],
        [0.5, 0.5],
    )
    assert ensemble_objective(line, 2, ens, DiscreteMeasure(line, [[1.0]], [1.0])) == pytest.approx(1.0)
    # split candidate: both pairwise plans are forced, half the mass moves
    # distance 2 toward each Dirac, so each W_2^2 is 0.5 * 4 = 2
    split = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    assert ensemble_objective(line, 2, ens, split) == pytest.approx(2.0)


def test_barycenter_two_diracs_midpoint(plane):
    a = DiscreteMeasure(plane, [[0.0, 0.0]], [1.0])
    b = DiscreteMeasure(plane, [[2.0, 4.0]], [1.0])
    r = barycenter_finite(plane, 2, MeasureEnsemble([a, b], [0.5, 0.5]))
    assert measures_equal(r.measure, DiscreteMeasure(plane, [[1.0, 2.0]], [1.0]))


def test_barycenter_derived_two_measures(line):
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure(line, [[1.0], [3.0]], [0.5, 0.5])
    r = barycenter_finite(line, 2, MeasureEnsemble([mu, nu], [0.5, 0.5]))
    assert measures_equal(r.measure, DiscreteMeasure(line, [[0.5], [2.5]], [0.5, 0.5]))
    assert r.objective == pytest.approx(0.25, abs=1e-10)


def test_barycenter_single_measure(line, rng):
    mu = random_measure(rng, line, max_atoms=5)
    r = barycenter_finite(line, 2, MeasureEnsemble([mu], [1.0]))
    assert measures_equal(r.measure, mu)
    assert r.objective == pytest.approx(0.0, abs=1e-12)


def test_objective_recomputable(rng, plane):
    ens = random_ensemble(rng, plane, 3, max_atoms=3)
    r = barycenter_finite(plane, 2, ens)
    assert r.objective == pytest.approx(
        ensemble_objective(plane, 2, ens, r.measure), rel=1e-8, abs=1e-10
    )


def test_minimality_probes(rng, line):
    ens = random_ensemble(rng, line, 3, max_atoms=3)
    r = barycenter_finite(line, 2, ens)
    for mu_j in ens.measures:
        assert r.objective <= ensemble_objective(line, 2, ens, mu_j) + 1e-8
    for _ in range(100):
        cand = random_measure(rng, line, max_atoms=6)
        assert r.objective <= ensemble_objective(line, 2, ens, cand) + 1e-8


def test_quantile_average_oracle(rng, line):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        J = int(rng.integers(2, 4))
        measures = [
            DiscreteMeasure(line, rng.normal(size=(n, 1)) * 2, np.full(n, 1.0 / n))
            for _ in range(J)
        ]
        lam = rng.random(J) + 0.1
        lam /= lam.sum()
        ens = MeasureEnsemble(measures, lam)
        r = barycenter_finite(line, 2, ens)
        oracle = quantile_average_1d(line, measures, lam, n)
        assert abs(r.objective - ensemble_objective(line, 2, ens, oracle)) <= 1e-8


def test_translation_equivariance(rng, plane):
    ens = random_ensemble(rng, plane, 2, max_atoms=3)
    v = np.array([1.5, -0.5])
    shifted = MeasureEnsemble(
        [pushforward(m, lambda a: a + v) for m in ens.measures], ens.lam
    )
    r0 = barycenter_finite(plane, 2, ens)
    r1 = barycenter_finite(plane, 2, shifted)
    moved = pushforward(r0.measure, lambda a: a + v)
    assert measures_equal(r1.measure, moved, tol=1e-9)


def test_fixed_support_matches_finite(line):
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure(line, [[1.0], [3.0]], [0.5, 0.5])
    ens = MeasureEnsemble([mu, nu], [0.5, 0.5])
    fin = barycenter_finite(line, 2, ens)
    fx = barycenter_fixed_support(line, 2, ens, fin.measure.atoms)
    assert abs(fx.objective - fin.objective) <= 1e-8
    assert fx.objective >= fin.objective - 1e-8


def test_fixed_support_single_point(line):
    ens = MeasureEnsemble(
        [DiscreteMeasure(line, [[0.0]], [1.0]), DiscreteMeasure(line, [[2.0]], [1.0])],
        [0.5, 0.5],
    )
    z = DiscreteMeasure(line, [[0.7]], [1.0])
    r = barycenter_fixed_support(line, 2, ens, z.atoms)
    assert measures_equal(r.measure, z)
    assert r.objective == pytest.approx(ensemble_objective(line, 2, ens, z))


def test_order_below_one_is_rejected_on_entry(plane, tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    ens = random_ensemble(rng, plane, 3)
    with pytest.raises(DimensionMismatch, match="order p must be >= 1"):
        barycenter_fixed_support(plane, 0.5, ens, rng.normal(size=(4, 2)))

    # On a metric matrix the check comes before the cost tensor is built.
    def no_tensor(*args):
        raise AssertionError("cost tensor built for p < 1")

    monkeypatch.setattr(multimarginal, "product_costs", no_tensor)
    graph = MeasureEnsemble(
        [DiscreteMeasure(GRID_GRAPH, [0, 8, 40], [0.2, 0.3, 0.5]),
         DiscreteMeasure(GRID_GRAPH, [3, 48], [0.5, 0.5])],
        [0.5, 0.5],
    )
    with pytest.raises(DimensionMismatch, match="order p must be >= 1"):
        barycenter_finite(GRID_GRAPH, 0.5, graph)
    pe, ps = tmp_path / "ens.json", tmp_path / "grid.json"
    save_ensemble(ens, pe)
    save_measure(DiscreteMeasure(plane, [[0.0, 0.0]], [1.0]), ps)
    argv = ["bary", "--in", str(pe), "--out", str(tmp_path / "b.json"), "--support", str(ps)]
    assert main(argv + ["--p", "0.5"]) == 1
    assert main(argv) == 0


def test_fixed_support_identical_measures(line, rng):
    mu = random_measure(rng, line, max_atoms=4)
    ens = MeasureEnsemble([mu, mu], [0.5, 0.5])
    r = barycenter_fixed_support(line, 2, ens, mu.atoms)
    assert measures_equal(r.measure, mu, tol=1e-9)
    assert r.objective == pytest.approx(0.0, abs=1e-10)


def test_variance_cases(line):
    mu = DiscreteMeasure(line, [[0.0], [1.0]], [0.5, 0.5])
    assert variance(line, 2, MeasureEnsemble([mu, mu], [0.5, 0.5])) == pytest.approx(0.0, abs=1e-12)
    diracs2 = MeasureEnsemble(
        [DiscreteMeasure(line, [[0.0]], [1.0]), DiscreteMeasure(line, [[2.0]], [1.0])],
        [0.5, 0.5],
    )
    assert variance(line, 2, diracs2) == pytest.approx(1.0)
    diracs3 = MeasureEnsemble(
        [DiscreteMeasure(line, [[float(i)]], [1.0]) for i in range(3)],
        np.full(3, 1 / 3),
    )
    assert variance(line, 2, diracs3) == pytest.approx(2.0 / 3.0)


def test_quantize_identity_and_k1(line):
    m = DiscreteMeasure(line, [[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
    assert measures_equal(quantize(m, 3), m)
    assert measures_equal(quantize(m, 10), m)
    q1 = quantize(m, 1)
    assert q1.n_atoms == 1
    assert q1.weights[0] == pytest.approx(1.0)


def test_quantize_two_clusters(line):
    m = DiscreteMeasure(line, [[0.0], [1.0], [10.0], [11.0]], np.full(4, 0.25))
    q = quantize(m, 2)
    w2, _ = wasserstein(line, 2, m, q)
    # exhaustive check over every 2-center choice among the atoms
    atoms = m.atoms.ravel()
    best = np.inf
    for i in range(4):
        for j in range(i + 1, 4):
            centers = np.array([atoms[i], atoms[j]])
            assign = np.abs(atoms[:, None] - centers[None, :]).argmin(axis=1)
            w = np.zeros(2)
            for a_idx, c_idx in enumerate(assign):
                w[c_idx] += m.weights[a_idx]
            cand = DiscreteMeasure(line, centers[:, None], w)
            best = min(best, wasserstein(line, 2, m, cand)[0])
    assert w2 <= best + 1e-9


def test_quantize_error_nonincreasing(rng, line):
    m = random_measure(rng, line, max_atoms=12)
    prev = None
    for k in range(1, m.n_atoms + 1):
        w, _ = wasserstein(line, 2, m, quantize(m, k))
        if prev is not None:
            assert w <= prev + 1e-12
        prev = w


# ---------------------------------------------------------------------------
# Per-measure costs are read off the solution; an independent transport solve
# must agree with each, and their weighted sum is the objective.
# ---------------------------------------------------------------------------

def _grid_graph(side):
    n = side * side
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i in range(n):
        if i % side + 1 < side:
            d[i, i + 1] = d[i + 1, i] = 1.0
        if i + side < n:
            d[i, i + side] = d[i + side, i] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return MetricMatrix(d)


def _check_costs(space, p, ens, r):
    assert len(r.per_measure_costs) == ens.size
    for cost, mu in zip(r.per_measure_costs, ens.measures):
        w, _ = wasserstein(space, p, r.measure, mu)
        assert abs(cost - w**p) <= 1e-9
    assert r.objective == float(np.dot(ens.lam, r.per_measure_costs))


@pytest.mark.parametrize("p", [1, 2])
def test_per_measure_costs_plane(rng, plane, p):
    for _ in range(4):
        ens = random_ensemble(rng, plane, 3, max_atoms=4)
        _check_costs(plane, p, ens, barycenter_finite(plane, p, ens))


@pytest.mark.parametrize("p", [1, 2])
def test_per_measure_costs_graph(rng, p):
    graph = _grid_graph(4)
    for _ in range(4):
        measures = [
            DiscreteMeasure(graph, rng.choice(16, size=n, replace=False), rng.dirichlet(np.ones(n)))
            for n in rng.integers(2, 5, size=3)
        ]
        ens = MeasureEnsemble(measures, rng.dirichlet(np.ones(3)))
        _check_costs(graph, p, ens, barycenter_finite(graph, p, ens))


@pytest.mark.parametrize("p", [1, 2])
def test_per_measure_costs_fixed_support(rng, plane, p):
    axis = np.linspace(-3.0, 3.0, 5)
    support = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    for _ in range(3):
        ens = random_ensemble(rng, plane, 3, max_atoms=4)
        _check_costs(plane, p, ens, barycenter_fixed_support(plane, p, ens, support))


def test_per_measure_cost_of_an_unweighted_member(plane):
    # A member of weight 0 does not enter the LP, so the plan the solution
    # holds for it is arbitrary (here 0.85 and 1.22 above W_2^2); its cost
    # is still W_p^p.
    ens = random_ensemble(np.random.default_rng(0), plane, 3, max_atoms=5)
    ens = MeasureEnsemble(ens.measures, [0.6, 0.4, 0.0])
    _check_costs(plane, 2, ens, barycenter_finite(plane, 2, ens))
    axis = np.linspace(-3.0, 3.0, 4)
    support = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    _check_costs(plane, 2, ens, barycenter_fixed_support(plane, 2, ens, support))


# ---------------------------------------------------------------------------
# The fixed-support LP: a primal simplex over the J cost blocks, started at
# the best Dirac, checked against two solvers that take the dense matrix.
# ---------------------------------------------------------------------------

def _fixed_support_system(costs, weights):
    # Dense LP of the fixed-support barycenter: the column sums of every plan,
    # then the agreement of every plan j >= 1 with plan 0 at every support
    # point (one redundant row per member, which both oracles handle).
    S = costs[0].shape[0]
    sizes = [C_j.shape[1] for C_j in costs]
    blocks = np.concatenate([[0], np.cumsum([S * n for n in sizes])])
    A = np.zeros((sum(sizes) + S * (len(costs) - 1), blocks[-1]))
    r = 0
    for j, n in enumerate(sizes):
        for i in range(n):
            A[r, blocks[j] + np.arange(S) * n + i] = 1.0
            r += 1
    for j in range(1, len(costs)):
        for s in range(S):
            A[r, blocks[0] + s * sizes[0] : blocks[0] + (s + 1) * sizes[0]] = 1.0
            A[r, blocks[j] + s * sizes[j] : blocks[j] + (s + 1) * sizes[j]] -= 1.0
            r += 1
    b = np.concatenate(list(weights) + [np.zeros(r - sum(sizes))])
    return np.concatenate([C_j.ravel() for C_j in costs]), A, b


def _lp_blocks(space, p, ens, support):
    support = as_atoms(space, support)
    costs = [lam_j * pairwise_distances(space, support, m.atoms) ** p
             for lam_j, m in zip(ens.lam, ens.measures)]
    return costs, [m.weights for m in ens.measures]


@given(ens=tensor_ensembles(min_members=1), p=st.sampled_from([1, 2, 3]), data=st.data())
@settings(max_examples=120, deadline=None)
def test_fixed_support_lp_matches_both_lp_solvers(ens, p, data):
    space = ens.space
    support = data.draw(space_points(space, data.draw(st.integers(1, 10))))
    r = barycenter_fixed_support(space, p, ens, support)
    costs, weights = _lp_blocks(space, p, ens, support)
    c, A, b = _fixed_support_system(costs, weights)
    highs = scipy.optimize.linprog(c, A_eq=A, b_eq=b, method="highs", options=HIGHS_OPTIONS).fun
    dense = solve_lp(c, A, b).objective
    for reference in (highs, dense):
        assert abs(r.objective - reference) <= 1e-12 * abs(reference)
    plans, pivots, min_reduced_cost = _fixed_support_lp(costs, weights)
    for pi, w in zip(plans, weights):
        assert np.max(np.abs(pi.sum(axis=0) - w)) <= 1e-9
        assert np.max(np.abs(pi.sum(axis=1) - plans[0].sum(axis=1))) <= 1e-9
    assert min_reduced_cost >= -1e-9
    assert (r.pivots, r.min_reduced_cost) == (pivots, min_reduced_cost)


@pytest.mark.parametrize(
    "atoms, support", [([0, 1, 2, 3, 6, 7], [0, 2, 1, 6, 7, 3]), ([0, 1, 2, 3, 22, 23], [1, 0, 2, 22, 23, 3])]
)
def test_zero_optimum_carries_no_round_off_mass(atoms, support):
    # Two equal members on the grid graph and their own atoms, reordered, as
    # the support: the optimum is 0.  The final solves leave levels near
    # 1e-16 on cells of cost 1/2 (the library's on the first support, the
    # dense oracle's on the second), which must reach neither objective.
    ms = [DiscreteMeasure(GRID_GRAPH, np.array(atoms), np.full(6, 1 / 6)) for _ in range(2)]
    ens = MeasureEnsemble(ms, [0.5, 0.5])
    r = barycenter_fixed_support(GRID_GRAPH, 1, ens, support)
    assert r.objective == 0.0 and r.per_measure_costs == [0.0, 0.0]
    assert measures_equal(r.measure, ms[0])
    c, A, b = _fixed_support_system(*_lp_blocks(GRID_GRAPH, 1, ens, support))
    assert solve_lp(c, A, b).objective == 0.0


def test_dirac_start_is_feasible_and_nonsingular(plane):
    rng = np.random.default_rng(7)
    ens = random_ensemble(rng, plane, 3, max_atoms=5)
    support = rng.normal(size=(6, 2))
    costs, weights = _lp_blocks(plane, 2, ens, support)
    s_star, basis = _dirac_start(costs, weights)
    dirac = [C_j @ w_j for C_j, w_j in zip(costs, weights)]
    assert s_star == int(np.argmin(sum(dirac)))
    _, A, b = _fixed_support_system(costs, weights)
    sizes = [m.n_atoms for m in ens.measures]
    # Drop the agreement row of s* for each member j >= 1.
    dropped = sum(sizes) + 6 * np.arange(2) + s_star
    A, b = np.delete(A, dropped, axis=0), np.delete(b, dropped)
    assert len(basis) == len(set(basis)) == A.shape[0]
    A_B = A[:, basis]
    assert np.linalg.matrix_rank(A_B) == A.shape[0]
    x_B = np.linalg.solve(A_B, b)
    assert np.all(x_B >= -1e-15)
    x = np.zeros(A.shape[1])
    x[basis] = x_B
    # All mass sits on row s* of every plan.
    offsets = np.cumsum([0] + [6 * n for n in sizes])
    for j, w_j in enumerate(weights):
        pi = x[offsets[j] : offsets[j + 1]].reshape(6, -1)
        assert np.allclose(pi[s_star], w_j, rtol=0, atol=1e-15)
        assert np.allclose(np.delete(pi, s_star, axis=0), 0.0, rtol=0, atol=1e-15)


def test_fixed_support_singular_basis_is_a_numerical_failure(plane, monkeypatch):
    ens = random_ensemble(np.random.default_rng(3), plane, 2, max_atoms=3)
    start = bary_module._dirac_start

    def repeated(costs, weights):
        s_star, basis = start(costs, weights)
        basis[-1] = basis[0]
        return s_star, basis

    monkeypatch.setattr(bary_module, "_dirac_start", repeated)
    with pytest.raises(NumericalFailure, match="singular basis"):
        barycenter_fixed_support(plane, 2, ens, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_one_member_fixed_support_is_bounded_by_its_variables(plane, monkeypatch):
    # J = 1: the LP has n_1 = 1 000 rows for any support, so only its
    # S n_1 = 2e7 variables bound it; a 20 000 x 1 000 cost matrix would
    # take 160 MB.  It raises before any cost is built.
    def refuse(*args, **kwargs):
        raise AssertionError("costs built for an LP past its bound")

    monkeypatch.setattr(bary_module, "pairwise_distances", refuse)
    rng = np.random.default_rng(20150612)
    member = DiscreteMeasure(plane, rng.normal(size=(1000, 2)), np.full(1000, 1e-3))
    ens = MeasureEnsemble([member], [1.0])
    with pytest.raises(ProductSizeExceeded, match="LP of 20000000 variables"):
        barycenter_fixed_support(plane, 2, ens, rng.normal(size=(20000, 2)))


def test_fixed_support_memory_on_a_10_by_10_grid(plane):
    # 3 members of 20 atoms on 100 support points: 258 rows and 6 000
    # columns; the dense 260 x 6 000 constraint matrix alone takes 12.5 MB.
    rng = np.random.default_rng(20150612)
    ens = MeasureEnsemble(
        [DiscreteMeasure(plane, rng.normal(size=(20, 2)), rng.dirichlet(np.full(20, 2.0)))
         for _ in range(3)],
        np.full(3, 1 / 3),
    )
    axis = np.linspace(-2.0, 2.0, 10)
    support = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        r = barycenter_fixed_support(plane, 2, ens, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert r.min_reduced_cost >= -1e-9


def test_stats_of_both_routes(plane):
    ens = random_ensemble(np.random.default_rng(11), plane, 3, max_atoms=4)
    r = barycenter_finite(plane, 2, ens)
    assert r.pivots >= 0 and r.min_reduced_cost >= -1e-9
    single = barycenter_finite(plane, 2, MeasureEnsemble(ens.measures[:1], [1.0]))
    assert (single.pivots, single.min_reduced_cost) == (0, None)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda plans: [pi * (1 - 1e-8) for pi in plans], "miss the weights"),
        # Swapping two rows of plan 1 keeps its column sums.
        (lambda plans: [plans[0], plans[1][::-1]], "disagree"),
    ],
)
def test_fixed_support_plans_are_checked_before_returning(plane, monkeypatch, corrupt, message):
    ens = MeasureEnsemble(
        [DiscreteMeasure(plane, [[0.0, 0.0]], [1.0]), DiscreteMeasure(plane, [[2.0, 0.0]], [1.0])],
        [0.7, 0.3],
    )
    solve = bary_module._fixed_support_lp

    def corrupted(costs, weights):
        plans, pivots, min_reduced_cost = solve(costs, weights)
        return corrupt(plans), pivots, min_reduced_cost

    monkeypatch.setattr(bary_module, "_fixed_support_lp", corrupted)
    with pytest.raises(NumericalFailure, match=message):
        barycenter_fixed_support(plane, 2, ens, [[0.0, 0.0], [1.0, 0.0]])
