"""Exception types shared across the package, how a message writes a size,
and the one check of a search or matrix cap."""


def size_text(n: int) -> str:
    """A size n >= 0 as every message writes it: in decimal, or as "at least
    2^k", k = floor(log2 n), past the interpreter's limit on decimal digits."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


def check_cap(label: str, cap: int) -> None:
    """Raise ValueError when a cap is negative, which is not a cap hit; 0
    still caps every search.  ``label`` names the cap, as "limit =" or
    "--max-enum"."""
    if cap < 0:
        raise ValueError(f"{label} {cap} is negative; 0 caps every search")


class EaqringError(Exception):
    """Base class for all package errors."""


class NoSolution(EaqringError):
    """A linear congruence has no solution."""


class SearchLimitExceeded(EaqringError):
    """A module to enumerate (a distance or error search set) is over the
    --max-enum limit."""

    def __init__(self, cardinality: int, limit: int):
        super().__init__(f"search set has {size_text(cardinality)} elements, "
                         f"over the --max-enum limit {limit}")
        self.cardinality = cardinality
        self.limit = limit


class DimensionMismatch(EaqringError):
    """Operands live in different ambient dimensions."""


class NotContained(EaqringError):
    """Submodule containment precondition failed."""


class ParameterTooLarge(EaqringError):
    """Ring parameters exceed the 2^31 cap on p^(b*m)."""


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
