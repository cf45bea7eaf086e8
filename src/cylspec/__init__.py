"""Spectral toolbox for the fractional Hardy operator on a cylinder.

The package evaluates the mode symbols of the conjugated operator,
locates their indicial roots, builds Green's functions as exponential
series, solves the linear and nonlinear profile equations on a grid,
and verifies the Wronskian and energy identities that the solutions
must satisfy.  Everything is importable from the top level; the
``cylspec`` console script exposes the same computations as batch jobs.
"""

from .errors import (
    CylspecError,
    DecayHypothesisError,
    DegenerateRootError,
    DivergenceError,
    DomainError,
    GridMismatchError,
    IncompleteError,
    NegativityError,
    NoFitError,
    NoRootError,
    PoleError,
    QuadratureError,
    ThresholdError,
    ValidationError,
    WindowError,
)
from .greens import (
    GreensSeries,
    apply_symbol,
    asymptotic_coefficients,
    build_greens,
    component_solutions,
    greens_quadrature_oracle,
    solve_convolution,
    solve_ode_system,
)
from .grid import DEFAULT_STEP, DEFAULT_T_MAX, GridFunction
from .identities import PohozaevReport, pohozaev_check, wronskian, wronskian_defect
from .indicial import IndicialRoot, certified_count, find_roots, residue_at
from .nonlinear import SolveReport, solve_profile
from .profiles import (
    AsymptoticFit,
    bubble,
    bubble_amplitude,
    bubble_residual,
    cylinder_constant,
    frobenius_fit,
    riesz_kernel_theta,
)
from .symbol import (
    CylinderParams,
    ModeIndex,
    constant_A,
    hardy_constant,
    kernel_K0,
    mode_constants,
    solve_p1,
    stability_classify,
    theta,
    theta_derivative,
    theta_lattice,
    theta_shifted,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticFit",
    "CylinderParams",
    "CylspecError",
    "DEFAULT_STEP",
    "DEFAULT_T_MAX",
    "DecayHypothesisError",
    "DegenerateRootError",
    "DivergenceError",
    "DomainError",
    "GreensSeries",
    "GridFunction",
    "GridMismatchError",
    "IncompleteError",
    "IndicialRoot",
    "ModeIndex",
    "NegativityError",
    "NoFitError",
    "NoRootError",
    "PohozaevReport",
    "PoleError",
    "QuadratureError",
    "SolveReport",
    "ThresholdError",
    "ValidationError",
    "WindowError",
    "apply_symbol",
    "asymptotic_coefficients",
    "bubble",
    "bubble_amplitude",
    "bubble_residual",
    "build_greens",
    "certified_count",
    "component_solutions",
    "constant_A",
    "cylinder_constant",
    "find_roots",
    "frobenius_fit",
    "greens_quadrature_oracle",
    "hardy_constant",
    "kernel_K0",
    "mode_constants",
    "pohozaev_check",
    "residue_at",
    "riesz_kernel_theta",
    "solve_convolution",
    "solve_ode_system",
    "solve_p1",
    "solve_profile",
    "stability_classify",
    "theta",
    "theta_derivative",
    "theta_lattice",
    "theta_shifted",
    "wronskian",
    "wronskian_defect",
]
