"""Shared exception types."""


class PrecisionError(ValueError):
    """An operation needs more series precision than the operands carry."""


class NotPIntegral(ValueError):
    """A coefficient has negative p-adic valuation where p-integrality is required."""


class ConstructionError(RuntimeError):
    """A generator build failed one of its pinned identities."""


class FormatError(ValueError):
    """A q-expansion file violates the text format; carries the offending
    line, and the file's path where the reader knows it."""

    def __init__(self, lineno: int, message: str, path=None):
        where = f"line {lineno}" if path is None else f"{path}: line {lineno}"
        super().__init__(f"{where}: {message}")
        self.lineno = lineno
        self.message = message
