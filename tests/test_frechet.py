import numpy as np
import pytest

from otbary import MetricMatrix, frechet_mean, frechet_objective
from otbary.spaces import midpoint


def test_objective_cases(line):
    assert frechet_objective(line, 2, [[3.0]], [1.0], [3.0]) == 0.0
    assert frechet_objective(line, 2, [[0.0], [2.0]], [0.5, 0.5], [1.0]) == pytest.approx(1.0)
    assert frechet_objective(line, 1, [[0.0], [2.0]], [0.5, 0.5], [1.0]) == pytest.approx(1.0)


def test_p2_closed_form(plane):
    r = frechet_mean(plane, 2, [[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
    assert np.allclose(r.point, [1.0, 0.0])
    assert r.iterations == 0


def test_p2_weighted_line(line):
    r = frechet_mean(line, 2, [[0.0], [1.0], [5.0]], [0.2, 0.3, 0.5])
    assert r.point[0] == pytest.approx(2.8)


def test_p1_equilateral_triangle(plane):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    r = frechet_mean(plane, 1, pts, np.full(3, 1 / 3))
    centroid = pts.mean(axis=0)
    assert np.allclose(r.point, centroid, atol=1e-8)


def test_p1_majority_anchor(line):
    # weight > 1/2 on one point makes it the median
    r = frechet_mean(line, 1, [[0.0], [1.0], [2.0]], [0.6, 0.2, 0.2])
    assert r.point[0] == pytest.approx(0.0, abs=1e-9)


def test_general_p_matches_probe_minimum(rng, plane):
    for p in (1.5, 3.0):
        pts = rng.normal(size=(5, 2))
        lam = rng.random(5)
        lam /= lam.sum()
        r = frechet_mean(plane, p, pts, lam)
        assert r.converged
        for probe in rng.normal(size=(100, 2)):
            assert r.objective <= frechet_objective(plane, p, pts, lam, probe) + 1e-9
        for x in pts:
            assert r.objective <= frechet_objective(plane, p, pts, lam, x) + 1e-9


def test_determinism(rng, plane):
    pts = rng.normal(size=(6, 2))
    lam = np.full(6, 1 / 6)
    a = frechet_mean(plane, 1.7, pts, lam)
    b = frechet_mean(plane, 1.7, pts, lam)
    assert np.array_equal(a.point, b.point)


def test_translation_equivariance(rng, plane):
    pts = rng.normal(size=(4, 2))
    lam = np.array([0.1, 0.2, 0.3, 0.4])
    v = np.array([5.0, -2.0])
    for p in (1, 2, 2.5):
        a = frechet_mean(plane, p, pts, lam)
        b = frechet_mean(plane, p, pts + v, lam)
        assert np.allclose(b.point, a.point + v, atol=1e-8)


def test_midpoint_consistency(rng, plane):
    a, b = rng.normal(size=(2, 2))
    r = frechet_mean(plane, 2, [a, b], [0.5, 0.5])
    assert np.allclose(r.point, midpoint(plane, a, b))


def test_metric_matrix_argmin_and_tiebreak():
    d = np.array(
        [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    )
    s = MetricMatrix(d)
    r = frechet_mean(s, 2, [0, 2], [0.5, 0.5])
    assert r.point == 1  # middle point: objective 1 beats 2 at the ends
    # symmetric two-point tie breaks toward the smaller label
    t = frechet_mean(s, 1, [0, 2], [0.5, 0.5])
    assert t.point == 0


def test_general_p_stops_at_float_resolution(line):
    # A p = 3 pair on which Armijo steps of ~1e-10 used to pass with an
    # unchanged objective, so the descent cycled until its iteration cap.
    a, b = 1.3035283997533655, 0.2839822578345439
    lam = np.array([0.5963300444688094, 0.40366995553119056])
    r = frechet_mean(line, 3, [[a], [b]], lam)
    assert r.converged
    assert r.iterations < 1000
    s1, s2 = np.sqrt(lam)
    assert abs(r.point[0] - (s1 * a + s2 * b) / (s1 + s2)) <= 1e-9
