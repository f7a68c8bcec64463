"""Exception hierarchy shared across the package."""

__all__ = [
    "CqadError",
    "ValidationError",
    "TruncationError",
    "NumericError",
]


class CqadError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CqadError):
    """Invalid inputs: config mismatches, bad selectors, malformed files."""


class TruncationError(CqadError):
    """A requested state or operation does not fit in the truncated Fock space."""


class NumericError(CqadError):
    """Numerical failure: tolerance not met, positivity lost, degenerate labels."""
