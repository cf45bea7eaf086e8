"""Damped Newton solver for the nonlinear profile equation.

The equation is the multiplier form of the profile problem,
``(Theta_0(D) - kappa) w = w^p``: the symbol acts spectrally on the
grid and the power nonlinearity acts pointwise.  Each Newton
linearization ``Theta_0 - kappa - p w^(p-1)`` is the free operator plus
a localized potential, so GMRES is right-preconditioned by the exact
inverse ``P = (Theta_0 - kappa)^(-1)``, built per solve from the
memoized lattice symbol: it solves
``(I - p w^(p-1) P) y = r`` with one ``P`` per Krylov product, the step
is ``P y``, and its residual is the Newton residual.  GMRES solves to
a small multiple of the squared Newton residual, which keeps Newton's
quadratic rate (Dembo, Eisenstat & Steihaug, "Inexact Newton methods",
1982), but never below :data:`GMRES_FLOOR`.  ``P`` is bounded by
``1/(Lambda - kappa)`` (derived in :func:`solve_profile`), so the
operator is the identity plus a compact term, and GMRES takes about as
many iterations on a refined grid as on the default one.  Each Newton
step is a :class:`NewtonStep` on the report and on the error that ends a
failed solve.

The Newton residual, which defines the solution and its tail, and ``P``
both run the one exact multiplier :func:`grid.multiply`, on the half
spectra ``Theta_0 - kappa`` and ``1/(Theta_0 - kappa)``.  A multiplier
whose round-off reached the low frequencies, as a fast-length circulant
built on the sampled kernel does, would leave noise in the decaying
tails that the tail-rate checks read.  An even guess on a symmetric window
runs on the even :class:`grid.Sector` and its solution is exactly even;
any other guess runs on the full lattice, where a translated guess
converges to the translated profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NegativityError, ValidationError, WindowError
from .grid import GridFunction, Sector
from .symbol import CylinderParams, theta_lattice

__all__ = ["NewtonStep", "SolveReport", "solve_profile"]

MAX_ITERATIONS = 50
MAX_HALVINGS = 6
NEGATIVITY_RETRIES = 2
# A Newton step from the sup residual r stops GMRES at the absolute
# residual FORCING * r * min(r, 1): below a multiple of r^2 the step keeps
# Newton quadratic, and above r = 1 the stop stays under the right-hand
# side's 2-norm, so GMRES always iterates.  It never falls below
# GMRES_FLOOR times the Newton tolerance, which bounds the last step: a
# relative 1e-10 on a right-hand side already near the tolerance asks for
# less than one product's round-off and never ends.  The 2-norm bounds
# the sup norm, so that step still lands below tolerance.
GMRES_FLOOR = 0.1
FORCING = 0.1
DECAY = 1e-6  # the largest end sample of a guess or a solution, relative to its peak


def gmres(A, b, **kwargs):
    """``scipy.sparse.linalg.gmres``, which loads at the first solve, not at import."""
    from scipy.sparse.linalg import gmres as scipy_gmres

    return scipy_gmres(A, b, **kwargs)


@dataclass(frozen=True)
class NewtonStep:
    """One Newton step: the residual's sup norm before it, the accepted
    damping ``alpha`` (0 if no step was accepted), and the GMRES inner
    iteration count and flag of its linear solve."""

    residual: float
    alpha: float
    gmres_iterations: int
    gmres_info: int


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a profile solve, with one :class:`NewtonStep` per Newton step."""

    solution: GridFunction
    residual_norm: float
    iterations: int
    converged: bool
    trivial: bool
    history: tuple[NewtonStep, ...] = ()

    def as_metadata(self) -> dict:
        return {
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "trivial": self.trivial,
        }


def _odd_power(w, p):
    return np.sign(w) * np.abs(w) ** p


def _failure(cls, message, history):
    """``cls(message)`` carrying the Newton history up to the failure as ``.history``."""
    err = cls(message)
    err.history = tuple(history)
    return err


def solve_profile(
    params: CylinderParams,
    initial_guess: GridFunction,
    tolerance: float = 1e-10,
    max_iterations: int = MAX_ITERATIONS,
) -> SolveReport:
    """Newton-iterate the profile equation from a positive decaying guess.

    Stops when the equation residual drops below `tolerance` in the sup
    norm.  Steps that fail to decrease the residual are halved up to
    MAX_HALVINGS times before DivergenceError; steps that push the
    iterate significantly negative are halved up to NEGATIVITY_RETRIES
    times before NegativityError.  A GMRES solve that returns a nonzero
    flag raises DivergenceError.  Both errors carry the Newton steps
    taken so far, the failing one last, as ``.history``.  A guess that
    is identically zero (or an iterate collapsing to zero) converges
    with the trivial flag set.  A nontrivial solution above :data:`DECAY`
    of its peak at the window's ends raises WindowError with ``.history``.

    Each step is ``P y`` for the GMRES solution of ``(I - p w^(p-1) P) y = r``,
    ``P = (Theta_0 - kappa)^(-1)`` being one :func:`grid.multiply` product
    on a half spectrum built per solve from the memoized lattice symbol
    (:func:`~cylspec.symbol.theta_lattice`); the step reuses the ``P y``
    of GMRES's closing true-residual product when that ran on the same ``y``.  GMRES
    stops at ``FORCING * r * min(r, 1)`` for the step's sup residual
    ``r``, or at ``GMRES_FLOOR * tolerance`` if larger.
    ``P`` is bounded for every accepted ``0 <= kappa < Lambda``:
    with ``Theta_0(xi) = 2^(2 gamma) |Gamma(A + i xi/2)|^2 / |Gamma(B + i xi/2)|^2``,
    ``A > B > 0``, the product form of Gamma gives on real frequencies

        d/dxi log Theta_0 = sum_k xi [1/((B+k)^2 + xi^2/4) - 1/((A+k)^2 + xi^2/4)] / 2,

    which has the sign of ``xi``.  So ``Theta_0`` is smallest at
    ``xi = 0``, where it is ``Lambda``, and ``Theta_0 - kappa >= Lambda - kappa > 0``.
    """
    if not 0.0 <= params.kappa < params.lam:
        raise ValidationError(
            f"spectral parameter {params.kappa!r} outside the stable range "
            f"[0, {params.lam!r})"
        )
    if max_iterations < 1:
        raise ValidationError("max_iterations must be at least 1")
    initial_guess.require_real()
    w = initial_guess.samples
    peak0 = float(np.max(np.abs(w)))
    if peak0 == 0.0:
        return SolveReport(
            solution=initial_guess.with_samples(np.zeros_like(w)),
            residual_norm=0.0,
            iterations=0,
            converged=True,
            trivial=True,
        )
    if float(np.min(w)) < -1e-10 * peak0:
        raise ValidationError("initial guess must be non-negative")
    initial_guess.require_decay(DECAY)

    even_grid = abs(initial_guess.t_min + initial_guess.t_max) <= 1e-12
    symmetric = even_grid and float(np.max(np.abs(w - w[::-1]))) <= 1e-10 * peak0

    from scipy.sparse.linalg import LinearOperator

    p, sector = params.p, Sector(w.size, symmetric)
    sym_vals = sector.spectrum(theta_lattice(params, 0, w.size, initial_guess.step) - params.kappa)
    inv_vals, w, (weight, norm) = 1.0 / sym_vals, sector.restrict(w), sector.weights()

    def residual(v):
        return sector.apply(sym_vals, v) - _odd_power(v, p)

    r = residual(w)
    rnorm = float(np.max(np.abs(r)))
    history = []
    while rnorm > tolerance:
        if len(history) >= max_iterations:
            raise _failure(
                DivergenceError,
                f"residual {rnorm:.3e} above tolerance after {len(history)} iterations",
                history,
            )
        step = len(history) + 1
        pot = p * np.abs(w) ** (p - 1.0)

        last = [None, None]  # the last product's y and P y

        def matvec(z):
            y = z / weight
            last[:] = y, sector.apply(inv_vals, y)
            return (y - pot * last[1]) * weight

        op = LinearOperator((w.size, w.size), matvec=matvec, dtype=np.float64)
        krylov = []
        atol = max(GMRES_FLOOR * tolerance, FORCING * rnorm * min(rnorm, 1.0))
        z, info = gmres(
            op, r * weight, restart=60, maxiter=300, atol=atol / norm, rtol=1e-10,
            callback=krylov.append, callback_type="pr_norm",
        )
        if info != 0:
            history.append(NewtonStep(rnorm, 0.0, len(krylov), info))
            raise _failure(
                DivergenceError,
                f"GMRES returned info = {info} at Newton step {step}, "
                f"right-hand side sup norm {rnorm:.3e}",
                history,
            )

        # GMRES ends on the true residual of the y it returns, so P y is
        # usually the last product's.
        y = z / weight
        delta = last[1] if np.array_equal(y, last[0]) else sector.apply(inv_vals, y)
        alpha, accepted, neg_left = 1.0, False, NEGATIVITY_RETRIES
        for _ in range(MAX_HALVINGS + 1):
            cand = w - alpha * delta
            scale = max(float(np.max(np.abs(cand))), 1e-300)
            if float(np.min(cand)) < -1e-8 * scale:
                if neg_left == 0:
                    history.append(NewtonStep(rnorm, 0.0, len(krylov), info))
                    raise _failure(
                        NegativityError, f"iterate lost positivity at iteration {step}", history
                    )
                neg_left -= 1
                alpha *= 0.5
                continue
            rc = residual(cand)
            rcn = float(np.max(np.abs(rc)))
            if rcn < rnorm:
                accepted = True
                break
            alpha *= 0.5
        history.append(NewtonStep(rnorm, alpha if accepted else 0.0, len(krylov), info))
        if not accepted:
            raise _failure(
                DivergenceError, f"residual stalled at {rnorm:.3e} after iteration {step}", history
            )
        w, r, rnorm = cand, rc, rcn

    solution = initial_guess.with_samples(sector.extend(w))
    trivial = float(np.max(np.abs(w))) <= 1e-10 * peak0
    if not trivial and solution.decay_margin() > DECAY:
        margin = f"{solution.decay_margin():.3e} of its peak at the window's ends"
        raise _failure(WindowError, f"not a decaying profile: {margin}", history)
    return SolveReport(
        solution=solution,
        residual_norm=rnorm,
        iterations=len(history),
        converged=True,
        trivial=trivial,
        history=tuple(history),
    )
