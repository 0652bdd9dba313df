"""Exception types shared across the package, and the checks of indices and reals."""

import math
import numbers


class IsoshiftError(Exception):
    """Base class for package errors."""


class ConfigurationError(IsoshiftError):
    """Invalid family/branch/parameter combination supplied by the caller."""


class DegenerateParameterError(IsoshiftError):
    """A closed form is undefined for these parameters (e.g. L2 with m = ell + 1/2)."""


class InternalInconsistencyError(IsoshiftError):
    """A construction failed its own residual check; indicates a bug, not user error."""


class SingularPotentialError(IsoshiftError):
    """A potential is non-finite at a grid node, or a residual has no sample
    where the potential and the state are finite and usable."""

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


def check_index(value, what):
    """value, if it is a nonnegative integer; ConfigurationError otherwise.

    Python and numpy integers pass; bools, floats (2.0 included) and other
    types do not.  Degrees, orders, state and hierarchy indices and matrix
    sizes all go through this one rule.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigurationError(f"{what} must be a nonnegative integer, got {value!r}")
    return value


def check_real(value, what):
    """value, if it is a finite real number; ConfigurationError otherwise.
    Python and numpy integers and floats pass; bools, NaN and infinities do
    not.  Family and polynomial parameters and a shift R go through it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{what} must be a finite real number, got {value!r}")
    return value
