import math
import tracemalloc

import numpy as np
import pytest

from otbary import DimensionMismatch, Euclidean, MetricMatrix
from otbary.spaces import TRIANGLE_BLOCK_ENTRIES, check_order, pairwise_distances


def test_euclidean_345():
    s = Euclidean(2)
    assert pairwise_distances(s, [(0, 0)], [(3, 4)])[0, 0] == pytest.approx(5.0)


def test_distance_identity():
    s = Euclidean(3)
    a = np.array([[1.0, -2.0, 0.5]])
    assert pairwise_distances(s, a, a)[0, 0] == 0.0


def test_metric_matrix_lookup():
    d = np.array([[0.0, 7.0], [7.0, 0.0]])
    s = MetricMatrix(d)
    assert pairwise_distances(s, [0, 1], [1])[:, 0].tolist() == [7.0, 0.0]


def test_metric_matrix_rejects_triangle_violation():
    d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
    with pytest.raises(DimensionMismatch):
        MetricMatrix(d)


def test_metric_matrix_rejects_asymmetry():
    d = np.array([[0, 1], [2, 0]], dtype=float)
    with pytest.raises(DimensionMismatch):
        MetricMatrix(d)


def test_triangle_inequality_random(rng):
    s = Euclidean(2)
    for _ in range(100):
        abc = rng.normal(size=(3, 2))
        D = pairwise_distances(s, abc, abc)
        assert D[0, 1] == pytest.approx(D[1, 0])
        assert D[0, 2] <= D[0, 1] + D[1, 2] + 1e-12


def test_pairwise_matches_scalar(rng):
    s = Euclidean(2)
    xs = rng.normal(size=(4, 2))
    ys = rng.normal(size=(3, 2))
    D = pairwise_distances(s, xs, ys)
    for i in range(4):
        for j in range(3):
            assert D[i, j] == pytest.approx(math.dist(xs[i], ys[j]))


def test_point_dimension_checked():
    s = Euclidean(2)
    with pytest.raises(DimensionMismatch):
        pairwise_distances(s, [(0, 0, 0)], [(1, 1)])


def _path_metric(n):
    idx = np.arange(n, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


def test_metric_matrix_triangle_check_covers_every_block():
    # The check runs a block of rows at a time; the only violation sits in
    # rows 296 and 298, past the first block.
    n = 300
    assert TRIANGLE_BLOCK_ENTRIES // (n * n) < 296
    d = _path_metric(n)
    assert MetricMatrix(d).n_points == n
    d[296, 298] = d[298, 296] = 5.0  # > d(296, 297) + d(297, 298) = 2
    with pytest.raises(DimensionMismatch):
        MetricMatrix(d)


def test_metric_matrix_triangle_check_memory_on_a_12_by_12_grid():
    # 144 nodes: the whole (n, n, n) sum cube would take 23.9 MB; the check
    # builds it a block of rows at a time.
    rc = np.indices((12, 12)).reshape(2, -1).T
    d = np.abs(rc[:, None, :] - rc[None, :, :]).sum(axis=2).astype(float)
    tracemalloc.start()
    try:
        MetricMatrix(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_check_order_takes_finite_orders_from_one():
    # NaN compares false with everything, so it must fail on its own.
    for p in (1, 1.5, 2, 3, 1e6):
        check_order(p)
    for p in (0.5, 0.999, -1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DimensionMismatch, match="order p must be >= 1"):
            check_order(p)
