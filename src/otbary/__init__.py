"""Exact Wasserstein distances and barycenters of finitely supported measures.

The library works with discrete probability measures over a Euclidean space
or an explicit finite metric matrix.  Pairwise distances come from the
north-west-corner coupling on the line and the transportation LP
elsewhere, on the pivot loop that the library's other LPs share; barycenters of measure ensembles come from the exact
multi-marginal transport LP whose optimal coupling is pushed forward through
the point-level Fréchet mean, with a fixed-support joint LP as the scalable
fallback.  A small harness reproduces barycenter consistency numerically
under growing-ensemble and empirical-sampling approximations.
"""

from .barycenter import (
    BarycenterResult,
    barycenter_finite,
    barycenter_fixed_support,
    ensemble_objective,
    quantize,
    variance,
)
from .consistency import (
    ConsistencyReport,
    ExperimentConfig,
    ensemble_distance,
    generate_deformation_ensemble,
    run_experiment,
)
from .deformations import DeformationSpec, draw_deformations
from .errors import (
    DimensionMismatch,
    InfeasibleWeights,
    InvalidConfig,
    NegativeWeight,
    NonConvergence,
    NumericalFailure,
    OTBaryError,
    ProductSizeExceeded,
    UnsupportedSpace,
    WeightSumOutOfTolerance,
)
from .frechet import frechet_means, frechet_objective
from .measures import (
    DiscreteMeasure,
    MeasureEnsemble,
    load_ensemble,
    load_measure,
    measures_equal,
    pth_moment,
    pushforward,
    sample_empirical,
    save_ensemble,
    save_measure,
    validate_measure,
)
from .multimarginal import (
    MultiCoupling,
    pushforward_barycenter,
    solve_multimarginal,
)
from .spaces import Euclidean, MetricMatrix, distance, midpoint, pairwise_distances
from .transport import TransportPlan, solve_transport, wasserstein, wasserstein_1d

__version__ = "0.1.0"
