"""Exception types shared across the package."""


class IsoshiftError(Exception):
    """Base class for package errors."""


class ConfigurationError(IsoshiftError):
    """Invalid family/branch/parameter combination supplied by the caller."""


class DegenerateParameterError(IsoshiftError):
    """A closed form is undefined for these parameters (e.g. L2 with m = ell + 1/2)."""


class InternalInconsistencyError(IsoshiftError):
    """A construction failed its own residual check; indicates a bug, not user error."""


class SingularPotentialError(IsoshiftError):
    """A potential is non-finite at a grid node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class SingularExtensionError(IsoshiftError):
    """An operation requiring a regular extension was called on a singular one."""

    def __init__(self, message, points=()):
        super().__init__(message)
        self.points = list(points)


class QuadratureError(IsoshiftError):
    """A quadrature rule did not reach its tolerance within its refinement cap."""
