"""Random deformation maps used to warp a template measure.

A :class:`DeformationSpec` describes a family of random maps T (translation,
scaling, affine, or monotone 1D spline) together with parameter
distributions and a seed.  Each kind is one function
``(params, rng, dim) -> map`` that reads its parameters, makes its draws
and returns the map, a plain function on an (n, d) float atom array.
:func:`draw_deformations` picks that function from :data:`KINDS` and
realizes J i.i.d. maps deterministically from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig


@dataclass(frozen=True)
class DeformationSpec:
    """Descriptor for a random deformation family.

    ``params`` holds distribution descriptors keyed by parameter name.
    A descriptor is a dict: {"dist": "uniform", "low": a, "high": b},
    {"dist": "normal", "mean": m, "std": s}, or
    {"dist": "choice", "values": [...], "probs": [...]}.
    """

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidConfig(f"unknown deformation kind {self.kind!r}")


def _draw(descriptor, rng, size):
    kind = descriptor.get("dist")
    if kind == "uniform":
        return rng.uniform(descriptor["low"], descriptor["high"], size=size)
    if kind == "normal":
        return rng.normal(descriptor["mean"], descriptor["std"], size=size)
    if kind == "choice":
        values = np.asarray(descriptor["values"], dtype=float)
        probs = descriptor.get("probs")
        idx = rng.choice(len(values), size=size, p=probs)
        return values[idx]
    raise InvalidConfig(f"unknown distribution descriptor {kind!r}")


def _identity(params, rng, dim):
    return lambda a: a


def _translation(params, rng, dim):
    desc = params.get("offset", {"dist": "normal", "mean": 0.0, "std": 1.0})
    if desc.get("dist") == "choice" and np.ndim(desc["values"]) == 2:
        values = np.asarray(desc["values"], dtype=float)
        if values.shape[1] != dim:
            raise DimensionMismatch("offset choice values have wrong dimension")
        offset = values[rng.choice(len(values), p=desc.get("probs"))]
    else:
        offset = np.atleast_1d(_draw(desc, rng, dim))
        if offset.shape[0] != dim:
            raise DimensionMismatch("offset draw has wrong dimension")
    return lambda a: a + offset[None, :]


def _scaling(params, rng, dim):
    desc = params.get("factor", {"dist": "uniform", "low": 0.5, "high": 2.0})
    factor = float(np.atleast_1d(_draw(desc, rng, 1))[0])
    center = np.asarray(params.get("center", np.zeros(dim)), dtype=float)
    if factor <= 0:
        raise InvalidConfig(f"scaling factor must be positive, got {factor}")
    return lambda a: center[None, :] + factor * (a - center[None, :])


def _affine(params, rng, dim):
    sigma = float(params.get("sigma", 0.1))
    for _attempt in range(100):
        matrix = np.eye(dim) + sigma * rng.standard_normal((dim, dim))
        if abs(np.linalg.det(matrix)) >= 1e-9:
            break
    else:
        raise InvalidConfig("affine matrix is singular")
    offset_desc = params.get("offset")
    offset = np.atleast_1d(_draw(offset_desc, rng, dim)) if offset_desc else np.zeros(dim)
    return lambda a: a @ matrix.T + offset[None, :]


def _monotone_spline(params, rng, dim):
    # Increasing piecewise-linear map on the knot range, linear extrapolation.
    if dim != 1:
        raise DimensionMismatch("spline deformations are one-dimensional")
    lo = float(params.get("low", 0.0))
    hi = float(params.get("high", 1.0))
    n_knots = int(params.get("knots", 5))
    jitter = float(params.get("log_slope_std", 0.3))
    knots = np.linspace(lo, hi, n_knots)
    slopes = np.exp(jitter * rng.standard_normal(n_knots - 1))
    values = np.concatenate(([lo], lo + np.cumsum(slopes * np.diff(knots))))
    lo_slope = (values[1] - values[0]) / (knots[1] - knots[0])
    hi_slope = (values[-1] - values[-2]) / (knots[-1] - knots[-2])

    def apply(a):
        x = a[:, 0]
        y = np.interp(x, knots, values)
        below = x < knots[0]
        above = x > knots[-1]
        y[below] = values[0] + lo_slope * (x[below] - knots[0])
        y[above] = values[-1] + hi_slope * (x[above] - knots[-1])
        return y[:, None]

    return apply


KINDS = {
    "translation": _translation,
    "scaling": _scaling,
    "affine": _affine,
    "monotone-1d-spline": _monotone_spline,
    "identity": _identity,
}


def draw_deformations(spec: DeformationSpec, count: int, dim: int) -> list:
    """Realize ``count`` i.i.d. deformations; deterministic in ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    make = KINDS[spec.kind]
    return [make(spec.params, rng, dim) for _ in range(count)]
