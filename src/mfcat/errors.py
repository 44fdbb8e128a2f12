"""Exception types shared across the package."""

from __future__ import annotations


class MfcatError(Exception):
    """Base class for all mfcat errors."""


class UsageError(MfcatError):
    """Mismatched shapes, mixed coefficient fields, bad arguments."""


class GradingError(MfcatError):
    """Grading data is missing, inconsistent, or non-homogeneous."""


class ParseError(MfcatError):
    """Syntax error in a polynomial or workspace file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
