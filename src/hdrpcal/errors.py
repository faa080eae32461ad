"""Exception types shared across the package."""

from __future__ import annotations


class HdrpcalError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HdrpcalError, ValueError):
    """A value lies outside the domain of an operation or violates a structural
    invariant (range, unit norm, shape)."""


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
    """A fit or estimate could not produce a result (insufficient or degenerate
    data, no convergence, bad conditioning, ...)."""


class UsageError(HdrpcalError):
    """Invalid command-line usage (maps to exit code 64)."""
