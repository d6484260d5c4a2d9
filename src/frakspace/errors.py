"""Exception types shared across the package."""

__all__ = [
    "FrakspaceError",
    "EmptyRatios",
    "OutOfRange",
    "UnknownGenerator",
    "BudgetExceeded",
    "ScaleTooFine",
    "TooFewPoints",
    "RankDeficient",
    "EmptyCube",
    "NonpositiveAlpha",
    "EmptyGrid",
    "NonFiniteValue",
]


class FrakspaceError(Exception):
    """Base class for all package-specific errors."""


class EmptyRatios(FrakspaceError):
    """A contraction-ratio list was empty."""


class OutOfRange(FrakspaceError, ValueError):
    """A numeric argument fell outside its documented range."""


class UnknownGenerator(FrakspaceError, KeyError):
    """Requested built-in generator name is not registered."""


class BudgetExceeded(FrakspaceError):
    """Requested cloud would exceed the point budget."""


class ScaleTooFine(FrakspaceError):
    """Requested scale lies below the cloud's resolution threshold."""


class TooFewPoints(FrakspaceError):
    """A cube holds too few cloud points for a well-posed fit."""


class RankDeficient(FrakspaceError):
    """The local Gram matrix is numerically rank deficient."""


class EmptyCube(FrakspaceError):
    """A cube contains no cloud points."""


class NonpositiveAlpha(FrakspaceError, ValueError):
    """Smoothness parameter must be positive."""


class EmptyGrid(FrakspaceError):
    """A scale grid contains no admissible scales."""


class NonFiniteValue(FrakspaceError):
    """A sampled function value is NaN or infinite."""
