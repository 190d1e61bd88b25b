"""Exception types shared across the package.  A function that raises for
a point breaking a rule of :data:`keplerflag.metric.VERDICTS` raises
DomainError whose message starts with the rule's reason code."""

__all__ = ["DomainError", "PreconditionError", "ConsistencyError"]


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


class ConsistencyError(AssertionError):
    """Two redundant internal computations of the same quantity disagree."""
