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
    """A computation would exceed its size limit; raised before allocating.

    ``what`` names the computation and ``unit`` what ``required`` and
    ``limit`` count, such as ("enumeration", "centers").
    """

    def __init__(self, what: str, unit: str, required: int, limit: int):
        super().__init__(
            f"{what} needs {required} {unit}, above the limit of {limit}"
        )
        self.required = required
        self.limit = limit


class LpFailureError(RuntimeError):
    """An LP solve failed a check; the message names the check.

    Raised by the simplex (iteration cap, unbounded column) and by
    ``lp.solve_lp`` (vertex fails verification). When a
    rounding driver made the solve, ``trace`` carries whatever rounding
    progress existed before it.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
