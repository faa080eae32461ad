"""Exception types shared across the package."""

from __future__ import annotations


class HdrpcalError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HdrpcalError, ValueError):
    """Numeric input outside the mathematical domain of an operation."""


class ValidationError(HdrpcalError, ValueError):
    """A value violates a structural invariant (range, unit norm, shape)."""


class CubeFormatError(HdrpcalError, ValueError):
    """A .cube file could not be parsed.

    ``line`` and ``column`` are 1-based positions in the source text when
    known.
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class CubeTruncationError(CubeFormatError):
    """Data row count does not match LUT_3D_SIZE**3."""


class UnsupportedCubeError(CubeFormatError):
    """The file is a recognized .cube variant this package does not handle."""


class SampleFormatError(HdrpcalError, ValueError):
    """Sample CSV ingestion failed; ``rows`` lists offending file lines."""

    def __init__(self, message: str, *, rows: tuple[int, ...] = ()):
        if rows:
            message += f" [rows: {', '.join(str(r) for r in rows)}]"
        super().__init__(message)
        self.rows = tuple(rows)


class FitError(HdrpcalError, RuntimeError):
    """Model fitting failed (insufficient data, bad conditioning, ...)."""


class DegenerateDataError(FitError):
    """The data carries no information about the parameters."""


class ConvergenceError(FitError):
    """An iterative fit hit its iteration cap."""


class EstimationError(HdrpcalError, RuntimeError):
    """A knot or constant estimation procedure could not produce a result."""


class UsageError(HdrpcalError):
    """Invalid command-line usage (maps to exit code 64)."""
