"""Exception types shared across the package.

Numerical preconditions (conditioning, positivity margins) raise dedicated
errors so callers can tell a misuse apart from a genuine domain violation.
"""


class SiegelmapsError(Exception):
    """Base class for all package errors."""


class NoConvergence(SiegelmapsError):
    """An iterative decomposition failed to converge."""


class SingularSystem(SiegelmapsError):
    """Linear system is singular or too ill-conditioned to solve."""


class ShapeMismatch(SiegelmapsError):
    """Operands live on incompatible domain shapes."""


class DimensionMismatch(SiegelmapsError):
    """Array dimensions are inconsistent with the requested operation."""


class MembershipViolation(SiegelmapsError):
    """Point is required to be an interior point of its domain but is not."""


class SingularCayley(SiegelmapsError):
    """The matrix inverse required by the Cayley transform is ill-conditioned."""


class IllConditioned(SiegelmapsError):
    """Computation rejected because conditioning bounds are exceeded."""


class DegreeOutOfRange(SiegelmapsError):
    """Exterior-power degree outside the valid range 1..p."""


class NormalizationSingular(SiegelmapsError):
    """Column normalization of a subspace basis hit a singular block.

    Cannot occur for interior inputs; treated as an internal error.
    """


class BudgetExceeded(SiegelmapsError):
    """Factor costs of an embedding exceed the target genus budget."""


class NonlinearityDetected(SiegelmapsError):
    """An embedding expected to be linear failed the linearity check."""


class SpecMismatch(SiegelmapsError):
    """Point does not match the embedding layout it is retracted against."""
