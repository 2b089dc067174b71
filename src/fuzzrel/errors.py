"""Exception hierarchy shared across the package."""


class FuzzrelError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FuzzrelError, ValueError):
    """A scalar, vector or matrix entry is outside the unit interval (or NaN)."""


class DimensionMismatch(FuzzrelError, ValueError):
    """Operand shapes are incompatible."""


class KindMismatch(FuzzrelError, ValueError):
    """A solver was invoked on a system built for a different implication."""


class ReportMismatch(FuzzrelError, ValueError):
    """A report was paired with a system it was not computed from."""


class PredicateNotUpClosed(FuzzrelError, RuntimeError):
    """Bisection detected a predicate that is not monotone in the tolerance."""


class InvariantViolation(FuzzrelError, RuntimeError):
    """A computed result broke an invariant the mathematics guarantees."""
