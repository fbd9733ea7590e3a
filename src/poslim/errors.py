"""Exception types shared across the package."""


class PoslimError(Exception):
    """Base class for all package-specific errors."""


class CycleError(PoslimError):
    """A relation closure would relate a point to itself."""


class EmptySubset(PoslimError):
    """An induced subposet needs at least one point."""


class SizeLimit(PoslimError):
    """Input exceeds a documented size cap."""


class BudgetExceeded(PoslimError):
    """An exact enumeration would exceed the configured work budget."""


class NotIntervalOrder(PoslimError):
    """The poset contains an induced 2+2 and has no interval representation."""


class NotInPMinus(PoslimError):
    """The distribution is not stochastically smaller than uniform."""


class InvariantError(PoslimError):
    """A constructed value violates a class invariant."""


class InternalInvariantError(PoslimError):
    """An internally asserted property failed; indicates a bug."""


class FormatError(PoslimError):
    """A text-format payload could not be parsed."""


class InvalidArgument(PoslimError, ValueError):
    """An argument is outside the range a function accepts."""
