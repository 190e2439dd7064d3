"""Error taxonomy shared across the package.

``cli.main`` maps every ``CoxheckeError`` to an exit code in one clause:
``InputError`` (``ParseError`` included), ``DomainError`` and
``PreconditionError`` give 2, every other class (capacity, consistency) 1.
"""


class CoxheckeError(Exception):
    """Base class for all package errors."""


class InputError(CoxheckeError, ValueError):
    """Malformed or mutually inconsistent user input."""


class ParseError(InputError):
    """Unparseable group file or Hecke expression; carries position info."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class DomainError(CoxheckeError, ValueError):
    """Operation applied outside its mathematical domain."""


class PreconditionError(CoxheckeError, ValueError):
    """A stated hypothesis of the requested computation is violated."""


class CapacityError(CoxheckeError, RuntimeError):
    """Enumeration would exceed the configured resource cap."""


class ConsistencyError(CoxheckeError, RuntimeError):
    """Two independent computations of the same quantity disagree."""
