"""Consistency of barycenters under empirical sampling.

Each ensemble member is replaced by an empirical measure of n samples;
as n grows the barycenter of the sampled ensemble converges to the
barycenter of the exact ensemble.  The experiment below reports the
median distance to the reference barycenter across replications.
"""

import numpy as np

from otbary import (
    DeformationSpec,
    DiscreteMeasure,
    Euclidean,
    ExperimentConfig,
    generate_deformation_ensemble,
    run_experiment,
)

line = Euclidean(1)
template = DiscreteMeasure(
    line, np.linspace(0.0, 1.0, 20)[:, None], np.full(20, 1 / 20)
)
spec = DeformationSpec(
    "translation",
    {"offset": {"dist": "uniform", "low": -0.3, "high": 0.3}},
    seed=7,
)
ens = generate_deformation_ensemble(template, spec, 3)

cfg = ExperimentConfig(
    framework="empirical_sampling",
    p=2,
    seed=42,
    sizes=[10, 100, 1000],
    ensemble=ens,
    replications=5,
)
report = run_experiment(cfg)
print("median W_2 distance to the reference barycenter:")
for size in cfg.sizes:
    print(f"  n = {size:>5d}:  {report.median_dist(size):.5f}")
