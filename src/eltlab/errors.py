"""Exception types shared across the package.

Everything derives from ELTError so callers (and the CLI) can catch
domain failures in one place.  ParseError is kept separate from the
domain errors because the CLI maps it to a different exit code.
"""


class ELTError(Exception):
    """Base class for all eltlab domain errors."""


class ParseError(ELTError):
    """Malformed textual input; `position` is a character offset when known."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonInvertible(ELTError):
    """Scalar has no multiplicative inverse (layer not a unit, or -inf)."""


class DegeneratePolynomial(ELTError):
    """Polynomial operation needs at least one finite coefficient."""


class NotSquare(ELTError):
    """Square-matrix operation applied to a rectangular matrix."""


class DimensionMismatch(ELTError):
    """Operand shapes are incompatible."""


class SingularDeterminant(ELTError):
    """Determinant layer is zero or not a unit; no quasi-inverse exists."""


class ZeroVector(ELTError):
    """Vector violates the eigenvector domain (all -inf, or zero-layer entries)."""


class InfeasibleAssignment(ELTError):
    """No perfect assignment exists on the finite entries."""


class UnboundVariable(ELTError):
    """Expression evaluated with an assignment missing one of its variables."""


class WorkBudgetExceeded(ELTError):
    """Input larger than the fixed size an exponential algorithm accepts."""
