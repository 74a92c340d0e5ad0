"""Exception types shared across the package, the integer rule of every
config type and the rule of every worker count."""

import numbers


def is_integer(value) -> bool:
    """A Python or numpy integer, not a bool (an INI or archive may hold
    3.0 or true, which int() and float() would read as numbers)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_threads(threads) -> None:
    """Refuse a worker count that is not an integer of at least 1."""
    if not is_integer(threads):
        raise OdseError(f"threads must be an integer, got {threads!r}")
    if threads < 1:
        raise OdseError(f"threads must be at least 1, got {threads}")


class OdseError(Exception):
    """Base class for all errors raised by this package."""


class MatrixFormatError(OdseError):
    """A substitution-matrix file is malformed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CostModelError(OdseError):
    """A similarity matrix cannot be turned into a valid cost model."""


class SymbolError(OdseError):
    """A sequence contains a symbol outside the active alphabet."""

    def __init__(self, sequence_id, position, symbol):
        super().__init__(
            f"sequence {sequence_id!r}: symbol {symbol!r} at position "
            f"{position} is not in the alphabet"
        )
        self.sequence_id = sequence_id
        self.position = position
        self.symbol = symbol


class TrainingError(OdseError):
    """A classifier cannot be trained on the given data."""


class SynthesisError(OdseError):
    """Model synthesis failed for a specific parameter setting."""


class DatasetError(OdseError):
    """Dataset ingestion or split construction failed."""
