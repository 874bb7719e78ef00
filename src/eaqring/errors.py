"""Exception types shared across the package."""


class EaqringError(Exception):
    """Base class for all package errors."""


class NoSolution(EaqringError):
    """A linear congruence has no solution."""


class SearchLimitExceeded(EaqringError):
    """A module to enumerate (a distance or error search set) is over the
    --max-enum limit."""

    def __init__(self, cardinality: int, limit: int):
        try:
            size = str(cardinality)
        except ValueError:  # past the interpreter's limit on decimal digits
            size = f"at least 2^{cardinality.bit_length() - 1}"
        super().__init__(f"search set has {size} elements, over the --max-enum limit {limit}")
        self.cardinality = cardinality
        self.limit = limit


class DimensionMismatch(EaqringError):
    """Operands live in different ambient dimensions."""


class NotContained(EaqringError):
    """Submodule containment precondition failed."""


class ParameterTooLarge(EaqringError):
    """Ring parameters exceed the 2^31 residue cap."""


class RingMismatch(EaqringError):
    """Operands belong to different rings."""


class CapacityExceeded(EaqringError):
    """Requested symplectic subset size exceeds the c*m capacity."""


class ZeroTarget(EaqringError):
    """A symplectic-subset target exponent is zero."""


class DimensionTooLarge(EaqringError):
    """Matrix dimension exceeds the configured cap."""


class InternalInvariantViolation(EaqringError):
    """A theorem-guaranteed invariant failed; indicates a bug."""


class ParseError(EaqringError):
    """Code file is malformed."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class RangeError(EaqringError):
    """A residue in a code file is out of range."""


class HPolyInvalid(EaqringError):
    """A supplied defining polynomial fails the validity checks."""
