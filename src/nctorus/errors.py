"""Exception types shared across the package."""


class NCTorusError(Exception):
    """Base class for all package errors.

    residuals: the named values a refusal measured before it refused, such
    as the residuals of a failed metric validation or of a failed
    hypothesis; empty when it measured none.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals or {}


class GeometryMismatch(NCTorusError):
    """Operands live on different tori (dimension or deformation matrix)."""


class NonSelfadjointInput(NCTorusError):
    """A selfadjoint element or matrix was required."""


class PositivityViolation(NCTorusError):
    """An element required to be positive invertible is not."""


class SpectralFloorViolation(PositivityViolation):
    """Compressed spectrum dips below the floor for a function singular at 0."""


class HypothesisViolated(NCTorusError):
    """A compatibility/commutation hypothesis of an identity check failed."""


class MetricValidationError(NCTorusError):
    """A candidate metric failed validation."""


class SeriesNotConverged(NCTorusError):
    """A power series did not reach its tolerance within its term limit, or
    cancellation among its terms left the sum no accurate digits to spare."""


class SpectrumOutsideDomain(NCTorusError):
    """Sampled spectrum leaves the domain of a functional-metric profile."""


class BoxTooSmall(NCTorusError):
    """Multiplier radius too large for the working box, or a stability box
    no larger than it."""


class BoxTooLarge(NCTorusError):
    """A dense matrix of the configured boxes would not fit in physical memory."""


class WindowOutOfRange(NCTorusError):
    """Fit window exceeds the stable part of a spectrum."""


class NonzeroTheta(NCTorusError):
    """Grid oracle requested for a noncommutative (theta != 0) torus."""


class AliasingRisk(NCTorusError):
    """Grid too coarse for the modes present."""
