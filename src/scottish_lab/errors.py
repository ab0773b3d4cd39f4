"""Exception types for documented precondition violations."""


class DomainError(Exception):
    """An input violates a documented precondition of an operation."""


class ComplexNotSupported(DomainError):
    """Complex scalars fed to a real-only operation."""


class EmptyDimension(DomainError):
    """A matrix or sequence dimension is zero."""


class TooShort(DomainError):
    """Sequence is too short for the requested analysis."""


class InvalidExponent(DomainError):
    """Norm exponent outside [1, inf]."""


class TooLargeForExact(DomainError):
    """The shorter side of a matrix exceeds the exact-enumeration cap."""


class InvalidTarget(DomainError):
    """Coefficient targets must be nonnegative reals."""


class InvalidRegime(DomainError):
    """Scalar parameter outside its admissible interval."""


class InvalidParameter(DomainError):
    """Structural parameter (size, budget, oversampling) out of range."""


class InvalidInput(DomainError):
    """Malformed or non-finite data in a parsed file."""
