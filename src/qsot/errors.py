"""Exception types shared across the package."""


class QsotError(Exception):
    """Base class for all package errors."""


class NotHermitian(QsotError):
    """Input matrix is not hermitian within tolerance."""


class DimensionMismatch(QsotError):
    """Operands have incompatible dimensions."""


class NumericalFailure(QsotError):
    """A numerical routine failed (non-convergence, invalid probability, ...)."""


class InvalidParameter(QsotError):
    """A constructor parameter is malformed or out of its allowed range."""


class InvalidIndex(QsotError):
    """An index is outside its allowed range."""


class ParameterOutOfRange(InvalidParameter):
    """A fiducial-family parameter violates its stated bounds."""


class FailedOverlapCondition(QsotError):
    """Candidate fiducial vector does not satisfy the SIC overlap condition."""


class NotLightTouch(QsotError):
    """An observable expected to be light-touch is not."""


class IsLightTouch(QsotError):
    """The observable is light-touch, so no counterexample exists."""


class SingularSystem(QsotError):
    """The reconstruction linear system is rank-deficient."""


class IndexOutOfRange(QsotError):
    """Outcome index outside the recorded range."""
