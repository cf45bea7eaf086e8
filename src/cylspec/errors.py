"""Exception hierarchy for the toolkit.

Numerical routines never let a NaN or infinity escape silently; they raise
one of these instead.  The CLI maps ``ValidationError`` to exit code 2 and
every other ``CylspecError`` to exit code 3.
"""

__all__ = [
    "CylspecError", "ValidationError", "DomainError", "PoleError", "NoRootError",
    "ThresholdError", "IncompleteError", "DegenerateRootError", "QuadratureError",
    "WindowError", "GridMismatchError", "DecayHypothesisError", "DivergenceError",
    "NegativityError", "NoFitError",
]


class CylspecError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(CylspecError, ValueError):
    """Invalid parameters or malformed input data."""


class DomainError(CylspecError):
    """Argument outside the mathematical domain of an operation."""


class PoleError(CylspecError):
    """Evaluation requested at (or within snapping distance of) a pole."""


class NoRootError(CylspecError):
    """A bracketed or requested root does not exist in the search range."""


class ThresholdError(CylspecError):
    """Parameters sit on a classification threshold where the regime is undefined."""


class IncompleteError(CylspecError):
    """Certified root count could not be reconciled with the roots located."""


class DegenerateRootError(CylspecError):
    """Root with vanishing symbol derivative; simple-pole bookkeeping breaks down."""


class QuadratureError(CylspecError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class WindowError(CylspecError):
    """Grid window too small for the requested evaluation."""


class GridMismatchError(CylspecError):
    """Two grid functions do not share an identical grid."""


class DecayHypothesisError(CylspecError):
    """Input decays too slowly for the requested expansion order."""


class DivergenceError(CylspecError):
    """Newton iteration diverged or exceeded its iteration budget."""


class NegativityError(CylspecError):
    """Iterate left the positive cone and damping could not recover it."""


class NoFitError(CylspecError):
    """No candidate asymptotic model fits the data within tolerance."""
