"""Exception types shared across the package."""


class GyroError(Exception):
    """Base class for all gyrokit errors."""


class TableFormatError(GyroError):
    """A Cayley table file or literal is malformed."""


class AxiomViolationError(GyroError):
    """An operation's algebraic precondition does not hold.

    Raised e.g. when a gyration table is requested for a table whose left
    translations are not bijective, or when a coset partition is requested
    for a subset without the required invariance property.
    """


class ChainConditionError(AxiomViolationError):
    """A neighborhood chain violates the condition needed by the construction."""

    def __init__(self, message, level=None, witness=None):
        super().__init__(message)
        self.level = level
        self.witness = witness


class ResourceLimitError(GyroError):
    """The request exceeds the supported desk-scale limits."""


class SamplingError(GyroError):
    """The sampler produced (or was asked for) an invalid point."""


class UsageError(GyroError):
    """Invalid CLI usage or configuration."""
