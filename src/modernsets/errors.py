"""Exception types shared across the package."""


class ModernSetError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ModernSetError):
    """An element was passed to an algebra whose carrier does not contain it."""


class StructuralError(ModernSetError):
    """A table or carrier is internally inconsistent.

    Distinct from a failed algebraic law: a structural error means the
    object is malformed (duplicate tokens, partial tables, results outside
    the carrier), not that a well-formed object violates an identity.
    """


class UnsupportedOperationError(ModernSetError):
    """The requested operation is not declared by this algebra."""


class IncompatibleFamilyError(ModernSetError):
    """Two modern sets over different algebra families were combined."""


class ShapeError(ModernSetError):
    """Matrix rows are ragged, non-square, or dimensions do not match."""


class NotAPosetError(ModernSetError):
    """The reflexive-transitive closure of the covers is not antisymmetric."""


class NotALatticeError(ModernSetError):
    """Some pair of elements lacks a unique meet or join."""


class PreconditionError(ModernSetError):
    """An operation was called outside its stated precondition."""


class CountError(ModernSetError, ValueError):
    """A sample count or search budget is negative."""


class UnknownLawError(ModernSetError, ValueError):
    """A law name is not in the registry."""


def require_count(name: str, value: int) -> None:
    """Raise CountError unless ``value`` is a non-negative count."""
    if value < 0:
        raise CountError(f"{name} must be non-negative, got {value}")


class ExpressionSyntaxError(ModernSetError):
    """Set-expression source text could not be parsed."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class EvalError(ModernSetError):
    """Expression evaluation failed, e.g. an identifier is unbound."""


class FileFormatError(ModernSetError):
    """A definition file is malformed."""

    def __init__(self, message: str, source: str = "<input>", line: int | None = None):
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")
        self.source = source
        self.line = line
