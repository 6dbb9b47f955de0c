"""Wasserstein barycenters via the multi-marginal linear program.

The barycenter of an ensemble of finitely supported measures is obtained
by solving one multi-marginal transportation problem over the product of
the supports and pushing the optimal coupling forward under the weighted
Fréchet-mean map.  The optimal objective is the ensemble's variance, the
value `otbary bary` prints.
"""

import numpy as np

from otbary import (
    DiscreteMeasure,
    Euclidean,
    MeasureEnsemble,
    barycenter_finite,
    barycenter_fixed_support,
    wasserstein,
)

line = Euclidean(1)
mu = DiscreteMeasure(line, [[0.0], [2.0]], [0.5, 0.5])
nu = DiscreteMeasure(line, [[1.0], [3.0]], [0.5, 0.5])
ens = MeasureEnsemble([mu, nu], [0.5, 0.5])

result = barycenter_finite(line, 2, ens)
print("barycenter atoms / weights:")
for atom, w in zip(result.measure.atoms.ravel(), result.measure.weights):
    print(f"  {atom:+.3f}  weight {w:.3f}")
print(f"objective sum_j lambda_j W_2^2(mu_j, bary) = {result.objective:.6f}")


def score(candidate):
    # sum_j lambda_j W_2^2(candidate, mu_j), one transport per member
    return sum(
        lam * wasserstein(line, 2, candidate, m)[0] ** 2 for lam, m in zip(ens.lam, ens.measures)
    )


# every other candidate scores at least as high
rng = np.random.default_rng(1)
for _ in range(3):
    cand = DiscreteMeasure(line, rng.normal(size=(3, 1)), np.full(3, 1 / 3))
    print(f"random candidate objective: {score(cand):.6f}")

# restricting the support to a fixed grid gives the best measure on that grid
grid = np.linspace(0.0, 3.0, 7)[:, None]
fixed = barycenter_fixed_support(line, 2, ens, grid)
print(f"best measure on a 7-point grid: objective {fixed.objective:.6f}")
