"""Exception types raised by the cete package.

Every failure mode has its own class so callers (and the CLI) can name the
failing stage precisely. All inherit from :class:`CeteError`.
"""


class CeteError(Exception):
    """Base class for all cete errors."""


# -- data model ---------------------------------------------------------------

class EmptyInputError(CeteError):
    """Input table is empty, ragged, or neither one- nor two-dimensional."""


class NonFiniteError(CeteError):
    """A NaN or infinity was found in the input."""

    def __init__(self, row, col):
        self.row = row
        self.col = col
        super().__init__(f"non-finite value at row {row}, column {col}")


class DuplicateLabelError(CeteError):
    """Two columns share the same label."""


# -- estimation ---------------------------------------------------------------

class TooFewSamplesError(CeteError):
    """Not enough samples for the requested estimate."""


class KTooLargeError(CeteError):
    """Neighbor count k must be smaller than the number of points."""


class DuplicatePointsError(CeteError):
    """Duplicate points produced a zero k-th neighbor distance."""


# -- embedding ----------------------------------------------------------------

class SeriesTooShortError(CeteError):
    """Series too short for the requested lag and order."""


class LengthMismatchError(CeteError):
    """Cause and effect series have different lengths."""


# -- oracle -------------------------------------------------------------------

class NonStationarySpecError(CeteError):
    """VAR coefficients define a non-stationary process."""


class RhoOutOfRangeError(CeteError):
    """Correlation coefficient must lie strictly inside (-1, 1)."""


# -- ingestion ----------------------------------------------------------------

class SchemaMismatchError(CeteError):
    """CSV header does not match the expected schema."""


class MalformedRowError(CeteError):
    """A data row could not be parsed."""

    def __init__(self, line, reason):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class NonMonotonicTimeError(CeteError):
    """Record timestamps do not increase by exactly one hour."""


class WindowHasMissingError(CeteError):
    """Requested window contains missing values."""


class NoCompleteRunError(CeteError):
    """No contiguous run of complete records of the requested length."""


class UnknownColumnError(CeteError):
    """Requested column name does not exist."""


class CategoricalColumnError(CeteError):
    """Categorical column requested where numeric data is required."""
