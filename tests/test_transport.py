import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otbary import (
    DiscreteMeasure,
    Euclidean,
    InfeasibleWeights,
    ProductSizeExceeded,
    UnsupportedSpace,
    measures_equal,
    pushforward,
    solve_transport,
    wasserstein,
    wasserstein_1d,
)
from otbary import pivoting, transport
from conftest import embedded, line_measures, random_measure
from highs_oracle import highs_transport


def test_single_cell_plan():
    r = solve_transport([[4.2]], [1.0], [1.0])
    assert r.plan[0, 0] == pytest.approx(1.0)
    assert r.cost == pytest.approx(4.2)


def test_zero_cost_matching():
    r = solve_transport([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert r.cost == pytest.approx(0.0)
    assert np.allclose(r.plan, np.diag([0.5, 0.5]))


def test_forced_single_target():
    # sources at 0 and 2, one target at 1, squared distance cost
    r = solve_transport([[1.0], [1.0]], [0.5, 0.5], [1.0])
    assert r.cost == pytest.approx(1.0)


def test_pivots_are_counted():
    # The north-west-corner start is the diagonal, the optimum the other one.
    r = solve_transport([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], [0.5, 0.5])
    assert r.cost == 0.0
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
    assert solve_transport(np.ones((1, 8)), [1.0], np.full(8, 0.125)).cost == 1.0
    plane = Euclidean(2)
    dirac = DiscreteMeasure(plane, [[0.0, 0.0]], [1.0])
    atoms = np.arange(1.0, 17.0).reshape(8, 2)
    cloud = DiscreteMeasure(plane, atoms, np.full(8, 0.125))
    w1, _ = wasserstein(plane, 1, dirac, cloud)
    assert w1 == pytest.approx(np.linalg.norm(atoms, axis=1).mean(), rel=1e-12)


def test_plan_feasibility_random(rng):
    for _ in range(30):
        n, m = rng.integers(1, 12, 2)
        C = rng.random((n, m)) * 5
        a = rng.random(n) + 0.05
        a /= a.sum()
        b = rng.random(m) + 0.05
        b /= b.sum()
        r = solve_transport(C, a, b)
        assert np.max(np.abs(r.plan.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(r.plan.sum(axis=0) - b)) <= 1e-9
        assert r.plan.min() >= 0.0
        assert r.cost == pytest.approx(float((r.plan * C).sum()), rel=1e-9)
        # optimality certificate: nonnegative reduced costs
        reduced = C - r.u[:, None] - r.v[None, :]
        assert reduced.min() >= -1e-9


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
        assert abs(r.cost - reference) <= 1e-9 * reference
        assert np.max(np.abs(r.plan.sum(axis=1) - a)) <= 1e-9
        assert np.max(np.abs(r.plan.sum(axis=0) - b)) <= 1e-9
        assert r.plan.min() >= 0.0
        assert (C - r.u[:, None] - r.v[None, :]).min() >= -1e-9
        assert r.u[0] == 0.0


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
    slack = C - r.u[:, None] - r.v[None, :]
    assert slack.min() >= -1e-9
    assert np.all(np.abs(slack[r.plan > 0]) <= 1e-9)
    assert np.max(np.abs(r.plan.sum(axis=1) - mu.weights)) <= 1e-9
    assert np.max(np.abs(r.plan.sum(axis=0) - nu.weights)) <= 1e-9
    assert r.plan.min() >= 0.0 and r.pivots == 0
    # The same atoms at (x, 0) in the plane go through the transport simplex.
    simplex = wasserstein(Euclidean(2), p, embedded(mu), embedded(nu))[1].cost
    assert abs(r.cost - simplex) <= 1e-12 * simplex
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
