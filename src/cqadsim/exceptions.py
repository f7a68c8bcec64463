"""Exception hierarchy shared across the package."""

__all__ = [
    "CqadError",
    "ValidationError",
    "TruncationError",
    "DispersiveRegimeError",
    "NumericError",
    "FitError",
]


class CqadError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CqadError):
    """Invalid inputs: config mismatches, bad selectors, malformed files."""


class TruncationError(CqadError):
    """A requested state or operation does not fit in the truncated Fock space."""


class DispersiveRegimeError(CqadError):
    """Parameters violate the dispersive-approximation guard."""


class NumericError(CqadError):
    """Numerical failure: tolerance not met, positivity lost, degenerate labels."""


class FitError(CqadError):
    """A fit could not be set up (structurally invalid data)."""
