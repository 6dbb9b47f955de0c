"""The draws of every deformation kind, pinned.

The expected arrays were computed once and must not move: a deformation
kind that changes its RNG call order or its formula changes every
experiment built on it.  Each case draws two maps from its seed and applies
them to fixed atoms; the line atoms reach past the knots on both sides, so
the spline's linear extrapolation is pinned too (the last case's end slopes
differ from its first and last drawn slopes in their last bits).
"""

import numpy as np
import pytest

from otbary.deformations import DeformationSpec, draw_deformations

LINE = np.array([[-0.5], [0.25], [1.0], [1.75]])
PLANE = np.array([[0.0, 0.0], [1.0, -2.0], [0.5, 3.0]])
U = {"dist": "uniform", "low": -1.0, "high": 1.0}

CASES = [
    (
        "identity",
        {},
        0,
        LINE,
        [
            [
                [-0.5],
                [0.25],
                [1.0],
                [1.75],
            ],
            [
                [-0.5],
                [0.25],
                [1.0],
                [1.75],
            ],
        ],
    ),
    (
        "translation",
        {},
        1,
        PLANE,
        [
            [
                [0.345584192064786, 0.8216181435011584],
                [1.345584192064786, -1.1783818564988415],
                [0.845584192064786, 3.8216181435011585],
            ],
            [
                [0.33043707618338714, -1.303157231604361],
                [1.330437076183387, -3.303157231604361],
                [0.8304370761833871, 1.696842768395639],
            ],
        ],
    ),
    (
        "translation",
        {"offset": U},
        3,
        LINE,
        [
            [
                [-1.3287016657127513],
                [-0.5787016657127513],
                [0.17129833428724872],
                [0.9212983342872487],
            ],
            [
                [-1.0263789868078006],
                [-0.2763789868078006],
                [0.4736210131921994],
                [1.2236210131921994],
            ],
        ],
    ),
    (
        "translation",
        {"offset": {"dist": "normal", "mean": 0.5, "std": 2.0}},
        7,
        PLANE,
        [
            [
                [0.5024603067149651, 1.0974910750169398],
                [1.502460306714965, -0.9025089249830602],
                [1.002460306714965, 4.09749107501694],
            ],
            [
                [-0.04827571072443515, -1.2811836775145484],
                [0.9517242892755648, -3.2811836775145484],
                [0.45172428927556485, 1.7188163224854516],
            ],
        ],
    ),
    (
        "translation",
        {"offset": {"dist": "choice", "values": [-1.0, 0.0, 2.0], "probs": [0.2, 0.3, 0.5]}},
        0,
        PLANE,
        [
            [
                [2.0, 0.0],
                [3.0, -2.0],
                [2.5, 3.0],
            ],
            [
                [-1.0, -1.0],
                [0.0, -3.0],
                [-0.5, 2.0],
            ],
        ],
    ),
    (
        "translation",
        {"offset": {"dist": "choice", "values": [[0.0, 1.0], [2.0, 3.0]]}},
        0,
        PLANE,
        [
            [
                [2.0, 3.0],
                [3.0, 1.0],
                [2.5, 6.0],
            ],
            [
                [2.0, 3.0],
                [3.0, 1.0],
                [2.5, 6.0],
            ],
        ],
    ),
    (
        "scaling",
        {},
        2,
        PLANE,
        [
            [
                [0.0, 0.0],
                [0.8924182013739745, -1.784836402747949],
                [0.44620910068698727, 2.6772546041219236],
            ],
            [
                [0.0, 0.0],
                [0.947736715121185, -1.89547343024237],
                [0.4738683575605925, 2.843210145363555],
            ],
        ],
    ),
    (
        "scaling",
        {"factor": {"dist": "choice", "values": [0.5, 2.0]}, "center": [1.0, -1.0]},
        1,
        PLANE,
        [
            [
                [0.5, -0.5],
                [1.0, -1.5],
                [0.75, 1.0],
            ],
            [
                [-1.0, 1.0],
                [1.0, -3.0],
                [0.0, 7.0],
            ],
        ],
    ),
    (
        "affine",
        {},
        4,
        PLANE,
        [
            [
                [0.0, 0.0],
                [0.9697643432039865, -1.965457150827331],
                [0.4149952546716824, 3.280930524519236],
            ],
            [
                [0.0, 0.0],
                [0.8369009233759217, -2.0920726787492447],
                [0.41636915601918806, 3.0134162699261884],
            ],
        ],
    ),
    (
        "affine",
        {"sigma": 0.3, "offset": {"dist": "normal", "mean": 0.0, "std": 1.0}},
        7,
        PLANE,
        [
            [
                [-0.45467078517172255, -0.9916465549964624],
                [0.3664509383304403, -2.539532808350763],
                [0.3143847215895227, 1.1657001118176584],
            ],
            [
                [0.4898420501851982, 0.35688700816006075],
                [0.7037559836317097, -1.4184900075133737],
                [2.2050573115738943, 2.7246286205394146],
            ],
        ],
    ),
    (
        "monotone-1d-spline",
        {},
        5,
        LINE,
        [
            [
                [-0.393086099608022],
                [0.196543049804011],
                [0.8802331657993014],
                [1.7310584303604504],
            ],
            [
                [-0.7030458134427005],
                [0.3515229067213502],
                [1.0192498610931773],
                [1.6119206601552265],
            ],
        ],
    ),
    (
        "monotone-1d-spline",
        {"low": 0.2, "high": 0.8, "knots": 4, "log_slope_std": 0.5},
        3,
        LINE,
        [
            [
                [-1.7421286557116105],
                [0.33872347540797215],
                [1.3036243853824123],
                [2.2280038190913456],
            ],
            [
                [-0.32699735627849796],
                [0.237642668305607],
                [0.8691858721166328],
                [1.5425421821692615],
            ],
        ],
    ),
]


@pytest.mark.parametrize("kind, params, seed, atoms, expected", CASES)
def test_draws_are_pinned(kind, params, seed, atoms, expected):
    maps = draw_deformations(DeformationSpec(kind, params, seed), len(expected), atoms.shape[1])
    for t, want in zip(maps, expected):
        np.testing.assert_array_equal(t(atoms), np.array(want))
