"""Spectral toolbox for the fractional Hardy operator on a cylinder.

The package evaluates the mode symbols of the conjugated operator,
locates their indicial roots, builds Green's functions as exponential
series, solves the linear and nonlinear profile equations on a grid,
and verifies the Wronskian and energy identities that the solutions
must satisfy.  Each module's ``__all__`` is its public API, and every
name in it is importable from the top level too; the ``cylspec``
console script exposes the same computations as batch jobs.
"""

from . import errors, greens, grid, identities, indicial, nonlinear, profiles, symbol
from .errors import *  # noqa: F403
from .greens import *  # noqa: F403
from .grid import *  # noqa: F403
from .identities import *  # noqa: F403
from .indicial import *  # noqa: F403
from .nonlinear import *  # noqa: F403
from .profiles import *  # noqa: F403
from .symbol import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (errors, greens, grid, identities, indicial, nonlinear, profiles, symbol)
        for name in module.__all__
    }
)
