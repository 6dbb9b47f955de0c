import numpy as np
import pytest
from hypothesis import strategies as st

from otbary import DiscreteMeasure, Euclidean, MeasureEnsemble, MetricMatrix


def random_measure(rng, space, max_atoms=10, scale=2.0, uniform=False):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = scale * rng.normal(size=(n, space.dim))
    if uniform:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.random(n) + 0.05
        weights /= weights.sum()
    return DiscreteMeasure(space, atoms, weights)


def random_ensemble(rng, space, n_measures, max_atoms=4, uniform_lam=False, **kw):
    measures = [random_measure(rng, space, max_atoms=max_atoms, **kw) for _ in range(n_measures)]
    if uniform_lam:
        lam = np.full(n_measures, 1.0 / n_measures)
    else:
        lam = rng.random(n_measures) + 0.1
        lam /= lam.sum()
    return MeasureEnsemble(measures, lam)


# Quarter-integer atoms: members share atoms, and distinct couplings differ
# in cost by far more than the LP solvers' optimality tolerances.
QUARTERS = st.integers(-20, 20).map(lambda k: k / 4)
# Orders at which the line routes are checked: the median, a strictly
# convex order on each side of 2, and 2.
LINE_ORDERS = [1, 1.5, 2, 3]
DYADIC_CUTS = 64
GRID_GRAPH_SIDE = 7


def _grid_graph():
    # Shortest paths on the 7 x 7 grid graph with unit edges: Manhattan
    # distance between the nodes' (row, column) positions.
    rc = np.indices((GRID_GRAPH_SIDE, GRID_GRAPH_SIDE)).reshape(2, -1).T
    return MetricMatrix(np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2).astype(float))


GRID_GRAPH = _grid_graph()


@st.composite
def tensor_ensembles(draw, min_members=2):
    """2D quarter-integer atoms or grid-graph nodes, 1-6 atoms per member.
    Equal-size uniform members make every staircase cell but n of them
    degenerate; n = 1 gives Diracs."""
    space = draw(st.sampled_from([Euclidean(2), GRID_GRAPH]))
    J = draw(st.integers(min_members, 4))
    equal = draw(st.booleans())
    n_equal = draw(st.integers(1, 6))
    measures = []
    for _ in range(J):
        n = n_equal if equal else draw(st.integers(1, 6))
        atoms = draw(space_points(space, n))
        if equal or draw(st.booleans()):
            weights = np.full(n, 1.0 / n)
        else:
            weights = np.asarray(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
            weights /= weights.sum()
        measures.append(DiscreteMeasure(space, atoms, weights))
    lam = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=J, max_size=J)))
    return MeasureEnsemble(measures, lam / lam.sum())


def space_points(space, n):
    """n distinct grid-graph nodes, or n distinct quarter-integer points."""
    if isinstance(space, MetricMatrix):
        return st.lists(st.integers(0, space.n_points - 1), min_size=n, max_size=n, unique=True)
    return st.lists(st.tuples(QUARTERS, QUARTERS), min_size=n, max_size=n, unique=True)


@st.composite
def line_measures(draw, max_atoms=30):
    """Measures on the line whose atoms come from a shared quarter-integer
    grid.  Weights are uniform, arbitrary floats, or differences of dyadic
    cuts k / 64 (exact arithmetic, so two measures' cumulative weights tie
    exactly), optionally with every cut moved by 2^-40 or 2^-52 (near ties
    above and below the 1e-15 mass cut); n = 1 gives a Dirac."""
    n = draw(st.integers(1, max_atoms))
    atoms = np.sort(draw(st.lists(QUARTERS, min_size=n, max_size=n, unique=True)))
    kind = draw(st.sampled_from(["uniform", "floats", "dyadic"]))
    if kind == "uniform":
        weights = np.full(n, 1.0 / n)
    elif kind == "floats":
        weights = np.asarray(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
        weights /= weights.sum()
    else:
        cuts = np.sort(draw(st.lists(st.integers(1, DYADIC_CUTS - 1), min_size=n - 1,
                                     max_size=n - 1, unique=True))) / DYADIC_CUTS
        cuts = cuts + draw(st.sampled_from([0.0, 2.0**-40, -(2.0**-40), 2.0**-52]))
        weights = np.diff(np.concatenate([[0.0], cuts, [1.0]]))
    return DiscreteMeasure(Euclidean(1), atoms[:, None], weights)


def indexed(tuples):
    """An (N, J, d) array of coordinate tuples, or (N, J) labels, as the
    (atoms, idx) of frechet_means: member j's atoms are column j, and tuple
    k takes atom k of every member."""
    tuples = np.asarray(tuples)
    N, J = tuples.shape[:2]
    return [tuples[:, j] for j in range(J)], np.tile(np.arange(N)[:, None], (1, J))


def embedded(m):
    """The measure m on the line as the same atoms (x, 0) in the plane."""
    return DiscreteMeasure(Euclidean(2), np.hstack([m.atoms, np.zeros_like(m.atoms)]),
                           m.weights)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def line():
    return Euclidean(1)


@pytest.fixture
def plane():
    return Euclidean(2)
