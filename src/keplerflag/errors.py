"""Exception types shared across the package."""

__all__ = ["DomainError", "PreconditionError", "DegeneracyError", "ConsistencyError"]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation.

    ``value`` carries the offending quantity (e.g. a negative radicand)
    when one is available.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class PreconditionError(ValueError):
    """A documented precondition of an operation is violated."""


class DegeneracyError(ArithmeticError):
    """The fiber Hessian is not positive definite at the requested point."""


class ConsistencyError(AssertionError):
    """Two redundant internal computations of the same quantity disagree."""
