"""Exact Wasserstein distances between finitely supported measures.

Builds two small measures on the line and takes the exact optimal plan: on
the line, the north-west-corner coupling of the sorted atoms, with at most
n + m - 1 cells and no solver.  The plan is sparse: its cells index the two
measures' atoms.
"""

import numpy as np

from otbary import DiscreteMeasure, Euclidean, wasserstein

line = Euclidean(1)
mu = DiscreteMeasure(line, [[0.0], [1.0], [2.0]], [0.25, 0.25, 0.5])
nu = DiscreteMeasure(line, [[0.5], [3.0]], [0.5, 0.5])

for p in (1, 2, 3):
    w, plan = wasserstein(line, p, mu, nu)
    print(f"p={p}:  W_p = {w:.12f}   ({len(plan.mass)} cells of {mu.n_atoms} x {nu.n_atoms})")
    for (i, j), mass in zip(plan.index, plan.mass):
        print(f"       move {mass:.3f} from {mu.atoms[i, 0]:+.2f} to {nu.atoms[j, 0]:+.2f}")

# in higher dimension the transportation simplex solves it; here a 2D example
plane = Euclidean(2)
rng = np.random.default_rng(0)
a = DiscreteMeasure(plane, rng.normal(size=(6, 2)), np.full(6, 1 / 6))
b = DiscreteMeasure(plane, rng.normal(size=(4, 2)) + 2.0, np.full(4, 1 / 4))
w2, plan = wasserstein(plane, 2, a, b)
print(f"\n2D example: W_2 = {w2:.6f}   ({len(plan.mass)} cells, {plan.pivots} pivots)")
