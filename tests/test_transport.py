import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otbary import (
    DiscreteMeasure,
    Euclidean,
    InfeasibleWeights,
    NumericalFailure,
    ProductSizeExceeded,
    UnsupportedSpace,
    pushforward,
    solve_transport,
    wasserstein,
)
from otbary import pivoting, transport
from otbary.cli import main
from otbary.measures import save_measure
from conftest import embedded, line_measures, random_measure
from highs_oracle import highs_transport
from oracles import dense, measures_equal, wasserstein_1d


def test_single_cell_plan():
    r = solve_transport([[4.2]], [1.0], [1.0])
    assert dense(r)[0, 0] == pytest.approx(1.0)
    assert r.objective == pytest.approx(4.2)


def test_zero_cost_matching():
    r = solve_transport([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert r.objective == pytest.approx(0.0)
    assert np.allclose(dense(r), np.diag([0.5, 0.5]))


def test_forced_single_target():
    # sources at 0 and 2, one target at 1, squared distance cost
    r = solve_transport([[1.0], [1.0]], [0.5, 0.5], [1.0])
    assert r.objective == pytest.approx(1.0)


def test_pivots_are_counted():
    # The north-west-corner start is the diagonal, the optimum the other one.
    r = solve_transport([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    assert r.objective == 0.0
    assert r.pivots >= 1


def test_unbalanced_rejected():
    with pytest.raises(InfeasibleWeights):
        solve_transport([[1.0]], [1.0], [0.5])


def test_nan_weight_rejected():
    with pytest.raises(InfeasibleWeights):
        solve_transport([[1.0, 2.0], [3.0, 0.5]], [0.5, np.nan], [0.5, 0.5])


def test_lp_past_the_row_bound_raises(monkeypatch):
    # 2 + 4 - 1 = 5 rows against a bound of 4.  With one source or one
    # target the plan is forced and no LP runs, so any size passes.
    monkeypatch.setattr(pivoting, "MAX_ROWS", 4)
    with pytest.raises(ProductSizeExceeded, match="LP of 5 rows"):
        solve_transport(np.ones((2, 4)), [0.5, 0.5], np.full(4, 0.25))
    assert solve_transport(np.ones((1, 8)), [1.0], np.full(8, 0.125)).objective == 1.0
    plane = Euclidean(2)
    dirac = DiscreteMeasure(plane, [[0.0, 0.0]], [1.0])
    atoms = np.arange(1.0, 17.0).reshape(8, 2)
    cloud = DiscreteMeasure(plane, atoms, np.full(8, 0.125))
    w1, _ = wasserstein(plane, 1, dirac, cloud)
    assert w1 == pytest.approx(np.linalg.norm(atoms, axis=1).mean(), rel=1e-12)


@pytest.mark.parametrize("rows", [4, 5, 4096])
def test_variable_bound_is_the_largest_transport_within_the_rows(monkeypatch, rows):
    # Every n x m transport LP within the row bound (n + m - 1 rows) passes
    # the variable bound, and one variable more than its largest does not.
    monkeypatch.setattr(pivoting, "MAX_ROWS", rows)
    most = max(n * (rows + 1 - n) for n in range(1, rows + 1))
    for n in range(1, rows + 1):
        pivoting.check_rows(rows, n * (rows + 1 - n))
    with pytest.raises(ProductSizeExceeded, match=f"LP of {most + 1} variables"):
        pivoting.check_rows(rows, most + 1)
    with pytest.raises(ProductSizeExceeded, match=f"LP of {rows + 1} rows"):
        pivoting.check_rows(rows + 1, 1)


def test_plan_feasibility_random(rng):
    for _ in range(30):
        n, m = rng.integers(1, 12, 2)
        C = rng.random((n, m)) * 5
        a = rng.random(n) + 0.05
        a /= a.sum()
        b = rng.random(m) + 0.05
        b /= b.sum()
        r = solve_transport(C, a, b)
        plan = dense(r)
        assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-9
        assert r.mass.min() >= 0.0
        assert r.objective == pytest.approx(float((plan * C).sum()), rel=1e-9)
        # optimality certificate: nonnegative reduced costs
        u, v = r.duals
        reduced = C - u[:, None] - v[None, :]
        assert reduced.min() >= -1e-9
        # positive-mass cells only, in increasing lexicographic order
        assert r.mass.min() > 0.0 and r.shape == (n, m)
        assert np.all(np.diff(r.index[:, 0] * m + r.index[:, 1]) > 0)


def _weights(rng, n, total, zeros):
    w = rng.random(n) + 0.05
    w[rng.permutation(n)[:zeros]] = 0.0
    return total * w / w.sum()


@pytest.mark.parametrize(
    "case",
    [
        # Uniform weights on n x n: the degenerate case the perturbation is for.
        lambda rng, n: (np.full(n, 1.0 / n), np.full(n, 1.0 / n)),
        lambda rng, n: (_weights(rng, n, 1.0, n // 3), _weights(rng, n + 2, 1.0, n // 2)),
        lambda rng, n: (_weights(rng, n, 2.5, 0), _weights(rng, n + 1, 2.5, 0)),
        lambda rng, n: (_weights(rng, 2, 1.0, 0), _weights(rng, n + 2, 1.0, 0)),
    ],
    ids=["uniform", "zero entries", "total 2.5", "two sources"],
)
def test_solve_transport_matches_highs(case):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 7, 12, 25):
        a, b = case(rng, n)
        x, y = rng.normal(size=(a.size, 2)), rng.normal(size=(b.size, 2))
        C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        r = solve_transport(C, a, b)
        reference = highs_transport(C, a, b)
        assert abs(r.objective - reference) <= 1e-9 * reference
        plan = dense(r)
        assert np.max(np.abs(plan.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(plan.sum(axis=0) - b)) <= 1e-9
        assert r.mass.min() >= 0.0
        u, v = r.duals
        assert (C - u[:, None] - v[None, :]).min() >= -1e-9
        assert u[0] == 0.0


def test_wasserstein_diracs(plane):
    mu = DiscreteMeasure(plane, [[0.0, 0.0]], [1.0])
    nu = DiscreteMeasure(plane, [[3.0, 4.0]], [1.0])
    for p in (1, 2, 3):
        assert wasserstein(plane, p, mu, nu)[0] == pytest.approx(5.0)


def test_wasserstein_self_zero(line, rng):
    m = random_measure(rng, line, max_atoms=8)
    assert wasserstein(line, 2, m, m)[0] == pytest.approx(0.0, abs=1e-9)


def test_wasserstein_forced_coupling(line):
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure(line, [[1.0]], [1.0])
    assert wasserstein(line, 2, mu, nu)[0] == pytest.approx(1.0)


def test_1d_oracle_trivial(line):
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    assert wasserstein_1d(2, mu, mu) == 0.0
    a = DiscreteMeasure(line, [[0.0]], [1.0])
    b = DiscreteMeasure(line, [[3.0]], [1.0])
    assert wasserstein_1d(1, a, b) == pytest.approx(3.0)


def test_1d_oracle_derived_pair(line):
    # 2x2 polytope brute force picks the monotone plan 0->1, 2->3: cost 1.
    mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
    nu = DiscreteMeasure(line, [[1.0], [3.0]], [0.5, 0.5])
    costs = np.array([[1.0, 9.0], [1.0, 1.0]])
    brute = min(
        0.5 * costs[0, 0] + 0.5 * costs[1, 1],
        0.5 * costs[0, 1] + 0.5 * costs[1, 0],
    )
    assert wasserstein_1d(2, mu, nu) == pytest.approx(np.sqrt(brute))
    assert wasserstein_1d(2, mu, nu) == pytest.approx(1.0)


def _short(levels):
    # The same levels with the first positive one 1e-8 short.
    levels = levels.copy()
    levels[np.flatnonzero(levels > 0)[0]] -= 1e-8
    return levels


def _short_entries(entries):
    return lambda refinement: (entries(refinement)[0], _short(entries(refinement)[1]))


def _short_simplex(simplex):
    def solve(C, weights):
        basis, x, *rest = simplex(C, weights)
        return (basis, _short(x), *rest)

    return solve


@pytest.mark.parametrize(
    "dim, name, shorten",
    [(1, "_entries", _short_entries), (2, "coupling_simplex", _short_simplex)],
    ids=["line", "plane"],
)
def test_plans_are_checked_before_returning(tmp_path, monkeypatch, capsys, dim, name, shorten):
    # One mass 1e-8 short: the line route's north-west-corner plan and the
    # LP's plan both raise, and `otbary dist` exits 2.
    space = Euclidean(dim)
    rng = np.random.default_rng(dim)
    mu, nu = (DiscreteMeasure(space, rng.normal(size=(n, dim)), np.full(n, 1 / n)) for n in (3, 4))
    wasserstein(space, 2, mu, nu)
    monkeypatch.setattr(transport, name, shorten(getattr(transport, name)))
    with pytest.raises(NumericalFailure, match="transport plan marginals miss the weights"):
        wasserstein(space, 2, mu, nu)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_measure(mu, a)
    save_measure(nu, b)
    assert main(["dist", "--in-a", str(a), "--in-b", str(b)]) == 2
    assert "NumericalFailure" in capsys.readouterr().err


def test_1d_oracle_requires_dim1(plane):
    mu = DiscreteMeasure(plane, [[0.0, 0.0]], [1.0])
    with pytest.raises(UnsupportedSpace):
        wasserstein_1d(2, mu, mu)


def test_lp_agrees_with_quantile_oracle(rng, line):
    for t in range(60):
        p = (1, 2, 3)[t % 3]
        mu = random_measure(rng, line, max_atoms=50, scale=3.0)
        nu = random_measure(rng, line, max_atoms=50, scale=3.0)
        lp, _ = wasserstein(line, p, mu, nu)
        assert abs(lp - wasserstein_1d(p, mu, nu)) <= 1e-8


def test_metric_axioms_random(rng):
    for t in range(40):
        d = 1 + t % 3
        s = Euclidean(d)
        p = (1, 2, 3)[t % 3]
        a, b, c = (random_measure(rng, s, max_atoms=10) for _ in range(3))
        wab = wasserstein(s, p, a, b)[0]
        wba = wasserstein(s, p, b, a)[0]
        assert abs(wab - wba) <= 1e-9
        assert wasserstein(s, p, a, c)[0] <= wab + wasserstein(s, p, b, c)[0] + 1e-8


def test_identity_of_indiscernibles(line):
    a = DiscreteMeasure(line, [[0.0], [0.0], [1.0]], [0.3, 0.2, 0.5])
    b = DiscreteMeasure(line, [[1.0], [0.0]], [0.5, 0.5])
    assert wasserstein(line, 2, a, b)[0] == pytest.approx(0.0, abs=1e-12)
    assert measures_equal(a, b)


def test_scaling_homogeneity(rng, plane):
    for _ in range(20):
        mu = random_measure(rng, plane, max_atoms=8)
        nu = random_measure(rng, plane, max_atoms=8)
        t = float(rng.uniform(0.2, 4.0))
        base = wasserstein(plane, 2, mu, nu)[0]
        scaled = wasserstein(
            plane, 2, pushforward(mu, lambda a: t * a), pushforward(nu, lambda a: t * a)
        )[0]
        assert scaled == pytest.approx(t * base, rel=1e-9, abs=1e-12)


def test_translation_invariance(rng, plane):
    for _ in range(20):
        mu = random_measure(rng, plane, max_atoms=8)
        nu = random_measure(rng, plane, max_atoms=8)
        v = rng.normal(size=2)
        base = wasserstein(plane, 2, mu, nu)[0]
        moved = wasserstein(
            plane, 2, pushforward(mu, lambda a: a + v), pushforward(nu, lambda a: a + v)
        )[0]
        assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


# Uniform weights against weights a few 1e-17 off them: the plane's LP
# moves those round-off masses off the diagonal, which the line cuts.
@example(
    mu=DiscreteMeasure(Euclidean(1), np.linspace(-1, 1, 9)[:, None], np.full(9, 1 / 9)),
    nu=DiscreteMeasure(Euclidean(1), np.linspace(-1, 1, 9)[:, None], np.full(9, 0.01) / 0.09),
    p=1,
)
@given(mu=line_measures(), nu=line_measures(), p=st.sampled_from([1, 1.5, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_line_route_is_certified(mu, nu, p):
    line = Euclidean(1)
    w, r = wasserstein(line, p, mu, nu)
    C = np.abs(mu.atoms[:, 0][:, None] - nu.atoms[:, 0][None, :]) ** p
    # Dual certificate on the full matrix: feasible duals, tight on the plan.
    u, v = r.duals
    slack = C - u[:, None] - v[None, :]
    plan = dense(r)
    assert slack.min() >= -1e-9
    assert np.all(np.abs(slack[plan > 0]) <= 1e-9)
    assert np.max(np.abs(plan.sum(axis=1) - mu.weights)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - nu.weights)) <= 1e-9
    assert plan.min() >= 0.0 and r.pivots == 0
    # The same atoms at (x, 0) in the plane go through the transport simplex.
    simplex = wasserstein(Euclidean(2), p, embedded(mu), embedded(nu))[1].objective
    assert abs(r.objective - simplex) <= 1e-12 * simplex
    back = wasserstein(line, p, nu, mu)[0]
    assert abs(back - w) <= 1e-12 * w


def test_line_route_builds_no_cost_matrix(line, rng, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the line route called the general kernel")

    monkeypatch.setattr(transport, "pairwise_distances", forbidden)
    monkeypatch.setattr(transport, "solve_transport", forbidden)
    mu = random_measure(rng, line, max_atoms=40)
    nu = random_measure(rng, line, max_atoms=40)
    assert wasserstein(line, 2, mu, nu)[0] == pytest.approx(wasserstein_1d(2, mu, nu))


def test_line_route_allocates_linear_memory(line):
    # Two 5 000-atom measures: the plan has at most n + m - 1 = 9 999 cells,
    # where a dense n x m array would take 200 MB.
    rng = np.random.default_rng(5000)
    mu, nu = (
        DiscreteMeasure(line, rng.normal(size=(5000, 1)), rng.dirichlet(np.ones(5000)))
        for _ in range(2)
    )
    tracemalloc.start()
    try:
        w, plan = wasserstein(line, 2, mu, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len(plan.mass) <= 9999 and plan.shape == (5000, 5000)
    assert abs(w - wasserstein_1d(2, mu, nu)) <= 1e-8
