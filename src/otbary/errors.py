"""Exception hierarchy shared by all modules."""


class OTBaryError(Exception):
    """Base class for all otbary errors."""


class DimensionMismatch(OTBaryError):
    """Points, atoms or weight vectors have incompatible shapes."""


class NegativeWeight(OTBaryError):
    """A probability weight is negative."""


class WeightSumOutOfTolerance(OTBaryError):
    """Weights do not sum to 1 within the acceptance tolerance."""


class UnsupportedSpace(OTBaryError):
    """The operation is not defined on this ground space."""


class InfeasibleWeights(OTBaryError):
    """Marginal weight vectors carry different total mass."""


class NumericalFailure(OTBaryError):
    """An LP solve did not terminate cleanly."""


class ProductSizeExceeded(OTBaryError):
    """The multi-marginal product support has more tuples than
    ``otbary.multimarginal.MAX_PRODUCT``, or an LP more rows or variables
    than ``otbary.pivoting.check_rows`` allows."""


class NonConvergence(OTBaryError):
    """Iterative minimization hit the iteration cap before the tolerance."""


class InvalidConfig(OTBaryError):
    """An experiment configuration violates its schema."""
