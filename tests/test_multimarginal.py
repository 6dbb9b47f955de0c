import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from otbary import (
    DimensionMismatch,
    DiscreteMeasure,
    Euclidean,
    MeasureEnsemble,
    NumericalFailure,
    ProductSizeExceeded,
    frechet_means,
    pushforward_barycenter,
    solve_multimarginal,
    wasserstein,
)
from otbary import multimarginal, pivoting, staircase
from otbary.multimarginal import _index_grid
from otbary.staircase import _comonotone_entries, _staircase, coupling_simplex
from otbary.transport import solve_transport
from dense_simplex import solve_lp
from highs_oracle import HIGHS_OPTIONS, brute_force_multimarginal, highs_transport
from conftest import (
    GRID_GRAPH,
    LINE_ORDERS,
    QUARTERS,
    indexed,
    random_ensemble,
    random_measure,
    tensor_ensembles,
)
from oracles import dense as dense_plan, measures_equal


def _marginal_system(measures, idx):
    # Dense (sum_j n_j x N) marginal constraints of the product LP, for the
    # dense-simplex oracle: row (j, i) sums the tuples whose j-th index is i.
    shape = tuple(m.n_atoms for m in measures)
    total_rows = sum(shape)
    N = idx.shape[0]
    A = np.zeros((total_rows, N))
    b = np.concatenate([m.weights for m in measures])
    offset = 0
    cols = np.arange(N)
    for j, n_j in enumerate(shape):
        A[offset + idx[:, j], cols] = 1.0
        offset += n_j
    return A, b


def test_tuple_cost_coincident(plane):
    a = np.array([1.0, 2.0])
    point, cost, _ = frechet_means(plane, 2, [0.5, 0.5], *indexed([[a, a]]))
    assert cost[0] == pytest.approx(0.0)
    assert np.allclose(point[0], a)


def test_tuple_cost_pair_midpoint(line):
    point, cost, _ = frechet_means(line, 2, [0.5, 0.5], *indexed([[[0.0], [2.0]]]))
    assert point[0, 0] == pytest.approx(1.0)
    assert cost[0] == pytest.approx(1.0)


def test_tuple_cost_triple_variance(line):
    point, cost, _ = frechet_means(line, 2, np.full(3, 1 / 3), *indexed([[[0.0], [3.0], [6.0]]]))
    assert point[0, 0] == pytest.approx(3.0)
    assert cost[0] == pytest.approx(6.0)


def test_single_measure_coupling(line, rng):
    mu = random_measure(rng, line, max_atoms=5)
    ens = MeasureEnsemble([mu], [1.0])
    gamma = solve_multimarginal(line, 2, ens)
    assert gamma.objective == 0.0
    assert measures_equal(pushforward_barycenter(ens, gamma), mu)


def test_all_diracs_single_entry(plane):
    ms = [DiscreteMeasure(plane, [[float(j), 0.0]], [1.0]) for j in range(3)]
    lam = np.array([0.2, 0.3, 0.5])
    ens = MeasureEnsemble(ms, lam)
    gamma = solve_multimarginal(plane, 2, ens)
    assert len(gamma.mass) == 1
    assert gamma.mass[0] == pytest.approx(1.0)
    _, expected, _ = frechet_means(plane, 2, lam, [m.atoms for m in ms], np.zeros((1, 3), int))
    assert gamma.objective == pytest.approx(expected[0])


def test_j2_reduces_to_pairwise(rng):
    # collapsed cost c[i,k] = inf_x sum of two weighted d^p terms
    for t in range(10):
        d = 1 + t % 2
        s = Euclidean(d)
        p = (1, 2, 3)[t % 3]
        ens = random_ensemble(rng, s, 2, max_atoms=4)
        mu, nu = [m for m in ens.measures]
        shape = (mu.n_atoms, nu.n_atoms)
        C = frechet_means(s, p, ens.lam, [mu.atoms, nu.atoms], _index_grid(shape))[1].reshape(shape)
        pairwise = highs_transport(C, mu.weights, nu.weights)
        gamma = solve_multimarginal(s, p, ens)
        assert abs(gamma.objective - pairwise) <= 1e-8


def test_oracle_equivalence(rng):
    for t in range(25):
        J = 2 + t % 2
        d = 1 + t % 3
        s = Euclidean(d)
        p = (1, 2, 3)[t % 3]
        ens = random_ensemble(rng, s, J, max_atoms=4)
        a = solve_multimarginal(s, p, ens).objective
        b = brute_force_multimarginal(s, p, ens).objective
        assert abs(a - b) <= 1e-8


def test_oracle_two_atom_cube(line):
    ms = [DiscreteMeasure(line, [[0.0], [1.0]], [0.5, 0.5]) for _ in range(3)]
    ens = MeasureEnsemble(ms, np.full(3, 1 / 3))
    a = solve_multimarginal(line, 2, ens).objective
    b = brute_force_multimarginal(line, 2, ens).objective
    assert abs(a - b) <= 1e-8


def test_marginal_feasibility(rng, plane):
    for _ in range(10):
        ens = random_ensemble(rng, plane, 3, max_atoms=3)
        gamma = solve_multimarginal(plane, 2, ens)
        for marg, m in zip(gamma.marginals(), ens.measures):
            assert np.max(np.abs(marg - m.weights)) <= 1e-9
        # vertex sparsity bound
        n_pos = int((gamma.mass > 1e-12).sum())
        assert n_pos <= sum(gamma.shape) - len(gamma.shape) + 1


def test_pushforward_derived_example(line):
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure(line, [[1.0], [3.0]], [0.5, 0.5])
    ens = MeasureEnsemble([mu, nu], [0.5, 0.5])
    gamma = solve_multimarginal(line, 2, ens)
    bary = pushforward_barycenter(ens, gamma)
    expected = DiscreteMeasure(line, [[0.5], [2.5]], [0.5, 0.5])
    assert measures_equal(bary, expected)


def test_pushforward_needs_the_means_of_a_multi_marginal_coupling(line):
    # A transport plan of the same shape is a Coupling too, without points.
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure(line, [[1.0], [3.0]], [0.5, 0.5])
    ens = MeasureEnsemble([mu, nu], [0.5, 0.5])
    _, plan = wasserstein(line, 2, mu, nu)
    with pytest.raises(DimensionMismatch, match="no Fréchet means"):
        pushforward_barycenter(ens, plan)
    with pytest.raises(DimensionMismatch, match="shape"):
        pushforward_barycenter(MeasureEnsemble([mu], [1.0]), plan)


def test_pushforward_identical_measures(line, rng):
    mu = random_measure(rng, line, max_atoms=4)
    ens = MeasureEnsemble([mu, mu], [0.5, 0.5])
    gamma = solve_multimarginal(line, 2, ens)
    assert gamma.objective == pytest.approx(0.0, abs=1e-12)
    assert measures_equal(pushforward_barycenter(ens, gamma), mu)


def test_optimality_inequalities(rng):
    for t in range(10):
        d = 1 + t % 2
        s = Euclidean(d)
        p = (1, 2, 3)[t % 3]
        ens = random_ensemble(rng, s, 2 + t % 2, max_atoms=3)
        gamma = solve_multimarginal(s, p, ens)
        nu = pushforward_barycenter(ens, gamma)
        upper = sum(
            l * wasserstein(s, p, m, nu)[0] ** p
            for l, m in zip(ens.lam, ens.measures)
        )
        assert upper <= gamma.objective + 1e-8
        for _ in range(10):
            cand = random_measure(rng, s, max_atoms=10)
            value = sum(
                l * wasserstein(s, p, m, cand)[0] ** p
                for l, m in zip(ens.lam, ens.measures)
            )
            assert value >= gamma.objective - 1e-8


def _refuse(*args, **kwargs):
    raise AssertionError("costs built for a product past the bound")


def test_product_size_cap(plane, monkeypatch):
    # In the plane: the line route builds no product, so the cap does not
    # apply there.  With the bound at 4 tuples, a product of 8 raises
    # before any cost is built: the cost builders fail if reached.
    monkeypatch.setattr(multimarginal, "MAX_PRODUCT", 4)
    monkeypatch.setattr(multimarginal, "product_costs", _refuse)
    monkeypatch.setattr(multimarginal, "frechet_means", _refuse)
    ms = [DiscreteMeasure(plane, [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]) for _ in range(3)]
    ens = MeasureEnsemble(ms, np.full(3, 1 / 3))
    with pytest.raises(ProductSizeExceeded):
        solve_multimarginal(plane, 2, ens)


def test_line_route_ignores_the_product_cap(line, monkeypatch):
    # Six members of 15 atoms: a product of 1.1e7 tuples, over the cap (here
    # 4 tuples), but the comonotone coupling has at most 85 entries, at every
    # order.  Nothing is built over the product: its builders fail if reached.
    monkeypatch.setattr(multimarginal, "MAX_PRODUCT", 4)
    monkeypatch.setattr(multimarginal, "product_costs", _refuse)
    monkeypatch.setattr(multimarginal, "_index_grid", _refuse)
    rng = np.random.default_rng(6)
    ms = [DiscreteMeasure(line, rng.normal(size=(15, 1)), rng.dirichlet(np.ones(15)))
          for _ in range(6)]
    ens = MeasureEnsemble(ms, np.full(6, 1 / 6))
    for p in LINE_ORDERS:
        gamma = solve_multimarginal(line, p, ens)
        assert gamma.shape == (15,) * 6 and len(gamma.mass) <= 6 * 14 + 1
        for marg, m in zip(gamma.marginals(), ms):
            assert np.max(np.abs(marg - m.weights)) <= 1e-9


FLOATS = st.floats(-5.0, 5.0, allow_nan=False, allow_subnormal=False)


@st.composite
def line_ensembles(draw, coord):
    # Uniform weights make members share cumulative breakpoints; n = 1 gives
    # Diracs.
    line = Euclidean(1)
    J = draw(st.integers(2, 4))
    measures = []
    for _ in range(J):
        n = draw(st.integers(1, 6))
        atoms = np.asarray(draw(st.lists(coord, min_size=n, max_size=n, unique=True)))
        if draw(st.booleans()):
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
            weights /= weights.sum()
        measures.append(DiscreteMeasure(line, atoms[:, None], weights))
    lam = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=J, max_size=J)))
    return MeasureEnsemble(measures, lam / lam.sum())


def _lp_objectives(ens, shape, p):
    # HiGHS through the oracle, and the in-house dense simplex on the full
    # product LP that the line route does not build.
    line = Euclidean(1)
    idx = _index_grid(shape)
    costs = frechet_means(line, p, ens.lam, [m.atoms for m in ens.measures], idx)[1]
    dense = solve_lp(costs, *_marginal_system(ens.measures, idx)).objective
    return brute_force_multimarginal(line, p, ens).objective, dense


def _check_comonotone(ens, gamma):
    for marg, m in zip(gamma.marginals(), ens.measures):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9
    assert len(gamma.mass) <= sum(gamma.shape) - len(gamma.shape) + 1
    assert np.all(np.diff(gamma.index, axis=0) >= 0)


@given(ens=line_ensembles(QUARTERS), p=st.sampled_from(LINE_ORDERS))
@settings(max_examples=150, deadline=None)
def test_line_comonotone_matches_both_lp_solvers(ens, p):
    gamma = solve_multimarginal(Euclidean(1), p, ens)
    for value in _lp_objectives(ens, gamma.shape, p):
        assert abs(gamma.objective - value) <= 1e-12
    _check_comonotone(ens, gamma)


@given(ens=line_ensembles(FLOATS), p=st.sampled_from(LINE_ORDERS))
@settings(max_examples=100, deadline=None)
def test_line_comonotone_never_beaten(ens, p):
    # Arbitrary floats include atoms ~1e-11 apart, where both LP solvers may
    # stop at a vertex a few 1e-12 above the optimum (within their reduced-
    # cost tolerance); the comonotone coupling must never be the worse one.
    gamma = solve_multimarginal(Euclidean(1), p, ens)
    for value in _lp_objectives(ens, gamma.shape, p):
        assert gamma.objective <= value + 1e-12
    _check_comonotone(ens, gamma)


# ---------------------------------------------------------------------------
# The tensor simplex: every input off the line.
# ---------------------------------------------------------------------------

@given(ens=tensor_ensembles(), p=st.sampled_from([1, 2, 3]))
@settings(max_examples=120, deadline=None)
def test_tensor_simplex_matches_both_lp_solvers(ens, p):
    space = ens.space
    gamma = solve_multimarginal(space, p, ens)
    highs = brute_force_multimarginal(space, p, ens).objective
    assert abs(gamma.objective - highs) <= 1e-12 * abs(highs)
    idx = _index_grid(gamma.shape)
    costs = frechet_means(space, p, ens.lam, [m.atoms for m in ens.measures], idx)[1]
    dense = solve_lp(costs, *_marginal_system(ens.measures, idx)).objective
    assert gamma.objective <= dense + 1e-12
    for marg, m in zip(gamma.marginals(), ens.measures):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9
    assert len(gamma.mass) <= sum(gamma.shape) - len(gamma.shape) + 1
    assert gamma.min_reduced_cost >= -1e-9


def test_tensor_simplex_two_clouds_of_100(plane):
    # J = 2 at p = 2: the tuple cost is lam_1 lam_2 |x - y|^2, so the optimum
    # is lam_1 lam_2 W_2^2, which the transportation simplex computes
    # without any LP over the product.
    rng = np.random.default_rng(20150612)
    mu, nu = (DiscreteMeasure(plane, rng.normal(size=(100, 2)), np.full(100, 0.01))
              for _ in range(2))
    lam = np.array([0.3, 0.7])
    gamma = solve_multimarginal(plane, 2, MeasureEnsemble([mu, nu], lam))
    w2 = wasserstein(plane, 2, mu, nu)[0]
    expected = lam[0] * lam[1] * w2**2
    assert abs(gamma.objective - expected) <= 1e-12 * expected


def _staircase_cells(measures):
    # The staircase's cells from its order: position 0 is the start cell,
    # the others member steps listed member by member.
    shape = [m.n_atoms for m in measures]
    order = _staircase([m.weights for m in measures])
    assert order[0] == 0
    member = np.repeat(np.arange(len(shape)), [n - 1 for n in shape])
    steps = np.zeros((order.size, len(shape)), dtype=np.intp)
    steps[np.arange(1, order.size), member[order[1:] - 1]] = 1
    return np.cumsum(steps, axis=0)


@given(ens=line_ensembles(QUARTERS))
@settings(max_examples=100, deadline=None)
def test_staircase_is_a_lattice_path_through_the_comonotone_coupling(ens):
    path = _staircase_cells(ens.measures)
    shape = np.array([m.n_atoms for m in ens.measures])
    assert len(path) == shape.sum() - len(shape) + 1
    assert np.all(path[0] == 0) and np.all(path[-1] == shape - 1)
    steps = np.diff(path, axis=0)
    assert np.all(steps.sum(axis=1) == 1) and np.all(steps >= 0)
    on_path = {tuple(cell) for cell in path}
    entries = _comonotone_entries([m.weights for m in ens.measures])[0]
    assert all(tuple(t) in on_path for t in entries)


def _stepwise_staircase(measures):
    # Reference walk, one cell at a time: toward each comonotone entry and
    # then the far corner, advance coordinate 0 first, then 1, and so on.
    idx, _ = _comonotone_entries([m.weights for m in measures])
    last = np.array([m.n_atoms - 1 for m in measures])
    cell = np.zeros(len(measures), dtype=np.intp)
    path = [cell.copy()]
    for target in (*idx, last):
        for j in range(len(cell)):
            while cell[j] < target[j]:
                cell[j] += 1
                path.append(cell.copy())
    return np.array(path)


@given(ens=line_ensembles(QUARTERS))
@settings(max_examples=100, deadline=None)
def test_staircase_matches_the_stepwise_walk(ens):
    assert np.array_equal(_staircase_cells(ens.measures), _stepwise_staircase(ens.measures))


def test_tensor_simplex_returns_values_of_a_fresh_factorization(plane):
    # The basis inverse is updated between refactorizations; the loop stops
    # only on a pricing pass with fresh factors, so the masses it returns
    # are exactly the LU solve on the final basis.
    rng = np.random.default_rng(4)
    ens = random_ensemble(rng, plane, 3, max_atoms=7)
    shape = tuple(m.n_atoms for m in ens.measures)
    idx = _index_grid(shape)
    C = frechet_means(plane, 2, ens.lam, [m.atoms for m in ens.measures], idx)[1].reshape(shape)
    basis, x, pivots, _, _ = coupling_simplex(C, [m.weights for m in ens.measures])
    assert pivots > 0
    A, b = _marginal_system(ens.measures, idx)
    starts = np.cumsum((0,) + shape[:-1])
    implied = starts[1:] + np.asarray(shape[1:]) - 1
    A, b = np.delete(A, implied, axis=0), np.delete(b, implied)
    fresh = np.linalg.solve(A[:, basis], b)
    assert np.array_equal(x, np.clip(fresh, 0.0, None))


def test_singular_basis_is_a_numerical_failure(plane, monkeypatch):
    # A repeated staircase cell gives two equal basis columns: after the
    # start cell (0, 0) and member 1's step to (1, 0), the start cell's
    # offset 0 stays at (1, 0).
    ms = [DiscreteMeasure(plane, [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5]) for _ in range(2)]
    monkeypatch.setattr(staircase, "_staircase", lambda weights: np.array([0, 1, 0]))
    with pytest.raises(NumericalFailure, match="singular basis"):
        solve_multimarginal(plane, 2, MeasureEnsemble(ms, [0.5, 0.5]))


def test_marginals_are_checked_before_returning(line, monkeypatch):
    ms = [DiscreteMeasure(line, [[0.0], [1.0]], [0.5, 0.5]) for _ in range(2)]
    entries = multimarginal._comonotone_entries

    def short_of_mass(weights):
        idx, mass = entries(weights)
        return idx, mass * (1 - 1e-8)

    monkeypatch.setattr(multimarginal, "_comonotone_entries", short_of_mass)
    with pytest.raises(NumericalFailure, match="marginals"):
        solve_multimarginal(line, 2, MeasureEnsemble(ms, [0.5, 0.5]))


@pytest.mark.parametrize(
    "atoms, p", [([13, 24, 25, 27, 39, 43], 1), ([2, 4, 10, 12, 27], 2), ([0, 3, 14, 19, 42, 47], 1)]
)
def test_identical_members_cost_exactly_zero(atoms, p):
    # Four equal uniform members on the grid graph: the optimum is 0, as
    # HiGHS finds.  The final solve leaves levels near 5e-17 on tuples of
    # positive cost; they are dropped from the coupling, and so from its
    # objective.
    ms = [DiscreteMeasure(GRID_GRAPH, np.array(atoms), np.full(len(atoms), 1 / len(atoms)))
          for _ in range(4)]
    ens = MeasureEnsemble(ms, np.full(4, 0.25))
    gamma = solve_multimarginal(GRID_GRAPH, p, ens)
    assert brute_force_multimarginal(GRID_GRAPH, p, ens).objective == 0.0
    assert gamma.objective == 0.0
    assert all(len(set(tup)) == 1 for tup in gamma.index.tolist())


def _uniform_clouds(plane, n, J):
    # J clouds of n standard normal atoms with uniform weights.
    rng = np.random.default_rng(20150612)
    return [DiscreteMeasure(plane, rng.normal(size=(n, 2)), np.full(n, 1.0 / n)) for _ in range(J)]


def _sparse_highs_objective(ms, lam):
    # Optimal value of the product LP at p = 2 by HiGHS on a sparse matrix:
    # the tuple costs are the weighted variances, one row per tuple.
    n, J = ms[0].n_atoms, len(ms)
    idx = np.indices((n,) * J).reshape(J, -1).T
    tuples = np.stack([m.atoms[idx[:, j]] for j, m in enumerate(ms)], axis=1)
    mean = np.einsum("j,njd->nd", lam, tuples)
    costs = np.einsum("j,nj->n", lam, ((tuples - mean[:, None, :]) ** 2).sum(axis=2))
    rows = (idx + n * np.arange(J)).T.ravel()
    cols = np.tile(np.arange(idx.shape[0]), J)
    A = scipy.sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(J * n, idx.shape[0]))
    b = np.concatenate([m.weights for m in ms])
    res = scipy.optimize.linprog(costs, A_eq=A, b_eq=b, method="highs", options=HIGHS_OPTIONS)
    assert res.success
    return res.fun


def test_uniform_clouds_of_60_match_a_sparse_highs_lp(plane):
    # Uniform weights on J = 3 clouds of 60 atoms: without the perturbed
    # right-hand side, ratio tests tie on most pivots here and the loop hit
    # its pivot cap.
    ms = _uniform_clouds(plane, 60, 3)
    lam = np.full(3, 1.0 / 3)
    gamma = solve_multimarginal(plane, 2, MeasureEnsemble(ms, lam))
    reference = _sparse_highs_objective(ms, lam)
    assert abs(gamma.objective - reference) <= 1e-9 * reference
    for marg, m in zip(gamma.marginals(), ms):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9
    assert gamma.min_reduced_cost >= -1e-9


def test_updated_values_and_duals_without_refactoring(plane, monkeypatch):
    # Between factorizations the basic values and the duals are updated in
    # O(m) per pivot.  With no scheduled refactorization every pricing pass
    # but the last runs on updated values, which must not drift off the
    # optimum; every pass's duals must stay those of its basis.
    monkeypatch.setattr(pivoting, "REFACTOR_EVERY", 10**9)
    drift = []
    loop = pivoting._pivot_loop

    def watched(c, b, basis, B, column, price):
        def checked(y):
            fresh = scipy.linalg.solve(B, c[basis], transposed=True)
            drift.append(np.max(np.abs(y - fresh)) / max(1.0, np.abs(fresh).max()))
            return price(y)

        return loop(c, b, basis, B, column, checked)

    monkeypatch.setattr(pivoting, "_pivot_loop", watched)
    ms = _uniform_clouds(plane, 40, 3)
    lam = np.full(3, 1.0 / 3)
    gamma = solve_multimarginal(plane, 2, MeasureEnsemble(ms, lam))
    assert gamma.pivots > 100 and len(drift) > gamma.pivots
    assert max(drift) <= 1e-9
    reference = _sparse_highs_objective(ms, lam)
    assert abs(gamma.objective - reference) <= 1e-9 * reference
    for marg, m in zip(gamma.marginals(), ms):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9
    assert gamma.min_reduced_cost >= -1e-9


@pytest.mark.parametrize("every", [1, 2, 3])
def test_short_refactor_periods_match_highs(plane, every, monkeypatch):
    # REFACTOR_EVERY = 1 factors the basis afresh after every pivot, so each
    # d = B^-1 a comes from B_0^-1 alone (j = 0); with 2, every other d
    # takes one product-form correction (j = 1); with 3, a row of B^-1 is
    # also read through one update.  Each must reach HiGHS's optimum on a
    # tensor LP and a 2D transportation LP.
    monkeypatch.setattr(pivoting, "REFACTOR_EVERY", every)
    solves = []
    solve = pivoting._solve

    def counted(B, rhs):
        solves.append(rhs.ndim)
        return solve(B, rhs)

    monkeypatch.setattr(pivoting, "_solve", counted)
    ms = _uniform_clouds(plane, 12, 3)
    lam = np.full(3, 1.0 / 3)
    gamma = solve_multimarginal(plane, 2, MeasureEnsemble(ms, lam))
    # One factorization per `every` pivots, and one per perturbed start.
    assert gamma.pivots > 20 and solves.count(2) >= gamma.pivots // every
    reference = _sparse_highs_objective(ms, lam)
    assert abs(gamma.objective - reference) <= 1e-9 * reference
    for marg, m in zip(gamma.marginals(), ms):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9
    assert gamma.min_reduced_cost >= -1e-9

    rng = np.random.default_rng(9)
    a, b = rng.dirichlet(np.ones(15)), rng.dirichlet(np.ones(20))
    x, y = rng.normal(size=(15, 2)), rng.normal(size=(20, 2))
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    del solves[:]
    r = solve_transport(C, a, b)
    assert r.pivots > 10 and solves.count(2) >= r.pivots // every
    reference = highs_transport(C, a, b)
    assert abs(r.objective - reference) <= 1e-9 * reference
    plan = dense_plan(r)
    assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-9
    u, v = r.duals
    assert (C - u[:, None] - v[None, :]).min() >= -1e-9


@pytest.mark.parametrize(
    "shape", [(1, 1), (3, 1), (1, 4), (3, 4), (2, 3, 4), (1, 3, 1), (4, 1, 2), (2, 1, 3, 2), (3, 2, 2, 3)]
)
def test_tensor_simplex_callbacks_match_the_dense_system(plane, shape, monkeypatch):
    # The tensor simplex builds no constraint matrix: column(k) must be
    # column k of the marginal system less its implied rows, and price(y)
    # must be c - A^T y.
    rng = np.random.default_rng(len(shape) * 10 + sum(shape))
    ms = [DiscreteMeasure(plane, rng.normal(size=(n, 2)), rng.dirichlet(np.ones(n))) for n in shape]
    C = rng.normal(size=shape)
    captured = {}

    def capture(c, b, basis, column, price):
        captured.update(c=c, b=b, column=column, price=price)
        return basis, b, 0, 0.0, np.zeros(b.shape[0])

    monkeypatch.setattr(staircase, "primal_simplex", capture)
    coupling_simplex(C, [m.weights for m in ms])
    A, b = _marginal_system(ms, _index_grid(shape))
    starts = np.cumsum((0,) + shape[:-1])
    implied = starts[1:] + np.asarray(shape[1:]) - 1
    A, b = np.delete(A, implied, axis=0), np.delete(b, implied)
    c = C.ravel()
    assert np.array_equal(captured["c"], c) and np.array_equal(captured["b"], b)
    for k in range(c.size):
        assert np.array_equal(captured["column"](k), A[:, k])
    for _ in range(5):
        y = rng.normal(size=A.shape[0])
        reduced = captured["price"](y.copy())
        assert np.all(np.abs(reduced - (c - A.T @ y)) <= 1e-12 * np.maximum(1.0, np.abs(c)))


def test_cached_perturbation_draw_is_the_fresh_draw(monkeypatch):
    # The draw is made once and regrown for a larger m; a shorter draw must
    # be the prefix of a longer one, so pivots do not depend on call order.
    monkeypatch.setattr(pivoting, "_draws", np.empty(0))
    for m in (3, 100, 7, 888, 1, 4999):
        fresh = np.random.Generator(np.random.PCG64(pivoting.PERTURBATION_SEED)).uniform(0.5, 1.0, m)
        assert np.array_equal(pivoting._perturbation_draws(m), fresh)


def test_infeasible_perturbed_optimum_restarts_on_the_true_lp(plane, monkeypatch):
    # A perturbation of the size of the weights moves the perturbed optimum
    # to a basis whose true levels are negative: the loop must run again on
    # the unperturbed right-hand side and reach the same optimum.
    ens = random_ensemble(np.random.default_rng(0), plane, 3, max_atoms=7)
    expected = solve_multimarginal(plane, 2, ens)
    runs = []
    loop = pivoting._pivot_loop

    def counted(*args):
        runs.append(args[1].copy())
        return loop(*args)

    monkeypatch.setattr(pivoting, "_pivot_loop", counted)
    monkeypatch.setattr(pivoting, "PERTURBATION", 1.0)
    gamma = solve_multimarginal(plane, 2, ens)
    assert len(runs) == 2
    b = np.concatenate([m.weights for m in ens.measures])
    assert not np.array_equal(runs[0], runs[1]) and np.isin(runs[1], b).all()
    assert abs(gamma.objective - expected.objective) <= 1e-12 * expected.objective
    for marg, m in zip(gamma.marginals(), ens.measures):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9


def test_unperturbed_uniform_clouds_reach_blands_rule(plane, monkeypatch):
    # Without the perturbation, uniform weights tie in the ratio test on
    # most pivots, and on this draw 3(m + 1) degenerate pivots in a row
    # switch Dantzig's rule to Bland's.  A spy on the callbacks tells the
    # two apart: Bland's rule enters the first variable priced below the
    # tolerance, where it is not the least reduced cost.  The optimum must
    # still be HiGHS's.
    monkeypatch.setattr(pivoting, "PERTURBATION", 0.0)
    bland = []
    simplex = staircase.primal_simplex

    def watched(c, b, basis, column, price):
        priced = []

        def spied_price(y):
            flat = price(y)
            priced[:] = [flat.copy()]
            return flat

        def spied_column(k):
            if priced:
                flat = priced.pop()
                first = int(np.argmax(flat < -pivoting.REDUCED_COST_TOL))
                bland.append(k == first != int(flat.argmin()))
            return column(k)

        return simplex(c, b, basis, spied_column, spied_price)

    monkeypatch.setattr(staircase, "primal_simplex", watched)
    rng = np.random.default_rng([30, 26])
    ms = [DiscreteMeasure(plane, rng.normal(size=(30, 2)), np.full(30, 1 / 30)) for _ in range(3)]
    lam = np.full(3, 1.0 / 3)
    gamma = solve_multimarginal(plane, 2, MeasureEnsemble(ms, lam))
    assert any(bland)
    reference = _sparse_highs_objective(ms, lam)
    assert abs(gamma.objective - reference) <= 1e-12 * reference
    for marg, m in zip(gamma.marginals(), ms):
        assert np.max(np.abs(marg - m.weights)) <= 1e-9
