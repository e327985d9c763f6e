"""Exception hierarchy shared by all modules."""


class KahlerLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(KahlerLabError):
    """Raised when an argument has the wrong shape, variance or value."""


class ShapeMismatchError(InvalidInputError):
    """Raised when tensor shapes or variances are incompatible."""


class SingularMetricError(KahlerLabError):
    """Raised when a metric (or a tensor used as one) is numerically degenerate."""


class InsufficientJetError(KahlerLabError):
    """Raised when an operation needs higher-order derivatives than available."""


class UnsupportedDimensionError(InvalidInputError):
    """Raised for dimensions outside the supported range (real dimension >= 4)."""


class UnsupportedModelError(InvalidInputError):
    """Raised when an operation has no meaning for the given model kind."""


class OutOfDomainError(KahlerLabError):
    """Raised when a point or curve leaves every chart of the atlas.

    Carries the last valid sample in ``last_sample`` when raised by an
    integrator.
    """

    def __init__(self, msg, last_sample=None):
        super().__init__(msg)
        self.last_sample = last_sample


class ProportionalSolutionError(KahlerLabError):
    """Raised when a solution proportional to the metric makes a fit ill-posed."""


class NoProjectorError(KahlerLabError):
    """Raised when an operator has a single eigenvalue cluster and therefore
    admits no nontrivial spectral projector."""


class ConfigError(KahlerLabError):
    """Raised for malformed scenario configuration (CLI exit code 2)."""


class ProjectorConsistencyError(KahlerLabError):
    """Raised when a supposed projector solution has a scalar component
    outside [0, 1] (up to tolerance)."""
