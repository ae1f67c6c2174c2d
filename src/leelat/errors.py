"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all leelat errors."""


class DimensionError(LatticeError):
    """Operands have incompatible or invalid dimensions."""


class SingularMatrixError(LatticeError):
    """A full-rank matrix was required but the input is rank deficient."""


class IntegralityError(LatticeError):
    """An exact integer result was demanded but the value is fractional."""


class StructureError(LatticeError):
    """A generator matrix does not have the shape an operation requires."""


class CapExceededError(LatticeError):
    """An enumeration would exceed its configured size cap."""


class DigitLimitError(LatticeError):
    """A number is past the interpreter's int-string limit, so it cannot be printed."""


class InconclusiveError(LatticeError):
    """A bounded search ended without an answer; raise the cap to retry."""


class BudgetExhaustedError(InconclusiveError):
    """A search ran out of its node budget before it settled every weight
    up to its cap."""


class BoundViolationError(LatticeError):
    """A proven bound failed, which can only mean an internal bug."""
