"""Exception types shared across the package."""


class BfchartError(Exception):
    """Base class for all bfchart errors."""


class NotPositiveDefinite(BfchartError):
    """A matrix required to be symmetric positive definite is not."""


class DimensionMismatch(BfchartError):
    """Vector/matrix shapes do not agree."""


class InvalidConfig(BfchartError):
    """A configuration parameter is outside its valid range."""


class CovarianceNotReady(BfchartError):
    """The running innovation covariance estimate is not yet positive definite."""

    def __init__(self, message: str, t: int | None = None):
        super().__init__(message)
        self.t = t  # the filter time of the covariance, where it is known


class TooShort(BfchartError):
    """Input sequence is shorter than the operation requires."""


class NonStationary(BfchartError):
    """Fitted autoregressive coefficient has modulus >= 1."""


class ZeroVariance(BfchartError):
    """Sample variance is zero where a nonzero variance is required."""


class EmptyInput(BfchartError):
    """An empty sequence was passed where data is required."""


class NonFiniteScore(BfchartError):
    """An observation is too extreme for its log Bayes factor to be finite."""


class BracketFailure(BfchartError):
    """The calibration target is unattainable inside the search bracket."""


class DegenerateFit(BfchartError):
    """No candidate discount factor produced a usable model fit."""


class SchemaMismatch(BfchartError):
    """A serialized artifact does not match the expected schema."""
