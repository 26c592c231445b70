"""Exception types shared across the library."""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed instance data: ragged rows, bad alphabet, empty payload."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CapacityError(RuntimeError):
    """Exhaustive enumeration would exceed its node budget."""

    def __init__(self, required: int, limit: int):
        super().__init__(
            f"enumeration would visit {required} centers, above the limit of {limit}"
        )
        self.required = required
        self.limit = limit


class LpFailureError(RuntimeError):
    """An LP solve ended in a non-optimal status.

    Raised by ``rounding.solve_relaxation``; when a rounding driver made the
    solve, ``trace`` carries whatever rounding progress existed before it.
    """

    def __init__(self, message: str, status: str, trace=None):
        super().__init__(message)
        self.status = status
        self.trace = trace
