"""Closed-form solution profiles and asymptotic-exponent extraction.

The cosh-power profile solves the critical equation with the Hardy
constant on the right-hand side; the spatially constant profile solves
the subcritical one.  Both serve as references for the nonlinear solver
and the identity checks.  `frobenius_fit` goes the other way: given a
sampled decaying profile, it recovers the decay exponent and oscillation
frequency of its leading tail term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoFitError, ValidationError, WindowError
from .grid import (
    TAIL_CEILING,
    TAIL_FLOOR,
    GridFunction,
    multiply,
    tail_mask,
)
from .specfun import hyp2f1, log_gamma
from .symbol import CylinderParams, theta_lattice

__all__ = [
    "AsymptoticFit",
    "bubble",
    "bubble_amplitude",
    "bubble_residual",
    "cylinder_constant",
    "frobenius_fit",
    "riesz_kernel_theta",
]

# Endpoint-to-peak ratio above which a window is too narrow for the
# tail-corrected transform.
DECAY_MARGIN_MAX = 1e-4
FIT_RESIDUAL_MAX = 0.05
# The pencil's decimated sample count and relative singular-value floor.
PENCIL_SAMPLES = 200
PENCIL_RANK_FLOOR = 1e-10

_CONSTANT_SPREAD = 1e-10


def bubble_amplitude(params: CylinderParams) -> float:
    """Peak value of the cosh profile; always exceeds 1."""
    g = params.gamma
    lg = log_gamma(np.array([0.5 * params.n - g, 0.5 * params.n + g]))
    ratio = math.exp((lg[0] - lg[1]).real)
    c = (params.lam * ratio) ** (-(params.n - 2.0 * g) / (4.0 * g))
    if not c > 1.0:
        raise DomainError(f"degenerate profile amplitude {c!r}")
    return c


def bubble(params: CylinderParams, t):
    """Evaluate C (cosh t)^{-(n-2 gamma)/2} at t (scalar or array).

    The bubble solves ``Theta_0 w = Lambda w^p`` (critical p, kappa = 0).
    The profile equation of :func:`cylinder_constant` and
    :func:`~cylspec.nonlinear.solve_profile` is ``(Theta_0 - kappa) w =
    w^p``, without the factor Lambda, so at kappa = 0 its solution is
    ``Lambda^(1/(p-1)) = cylinder_constant`` times the bubble: the CLI's
    default guess.
    """
    a = 0.5 * (params.n - 2.0 * params.gamma)
    ts = np.abs(np.asarray(t, dtype=np.float64))
    # log cosh, overflow-safe for any t
    logcosh = ts + np.log1p(np.exp(-2.0 * ts)) - math.log(2.0)
    out = bubble_amplitude(params) * np.exp(-a * logcosh)
    return float(out) if np.ndim(t) == 0 else out


def cylinder_constant(params: CylinderParams) -> float:
    """The constant solving the profile equation, (Lambda - kappa)^{1/(p-1)}.

    At kappa = 0 it also takes :func:`bubble` to a solution (see there).
    """
    gap = params.lam - params.kappa
    if gap <= 0.0:
        raise DomainError("no positive constant solution beyond the Hardy constant")
    return gap ** (1.0 / (params.p - 1.0))


def _tail_padded_multiplier(params, samples, step, rate):
    """Apply the kappa=0 symbol with exact exponential tails appended.

    Periodizing a window chops the profile's tails; appending the known
    exponential continuation before the transform pushes the seam error
    below the tail tolerance instead.  It has no fixed length, so both
    sides are padded evenly to the 5-smooth ``next_fast_len(3n, real=True)``.
    """
    from scipy.fft import next_fast_len

    n = samples.size
    m = next_fast_len(3 * n, real=True)
    k = (m - n) // 2  # the left pad; the right one is k or k + 1
    decay = np.exp(-rate * step * np.arange(1, m - n - k + 1))
    ext = np.concatenate([samples[0] * decay[:k][::-1], samples, samples[-1] * decay])
    return multiply(theta_lattice(params, 0, m, step), ext)[k : k + n]


def bubble_residual(params: CylinderParams, profile: GridFunction) -> float:
    """Relative sup-norm defect of the profile in the critical equation.

    Compares the kappa=0 operator applied to the profile against
    Lambda * profile^p.  Constant profiles are transformed without
    padding (periodization is exact for them); decaying profiles get
    the exponential tail correction and must decay to DECAY_MARGIN_MAX
    by the window edge.
    """
    profile.require_real()
    w = profile.samples
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        return 0.0
    spread = float(np.max(w) - np.min(w))
    if spread <= _CONSTANT_SPREAD * peak:
        applied = multiply(theta_lattice(params, 0, w.size, profile.step), w)
    else:
        profile.require_decay(DECAY_MARGIN_MAX)
        rate = 0.5 * (params.n - 2.0 * params.gamma)
        applied = _tail_padded_multiplier(params, w, profile.step, rate)
    rhs = params.lam * np.sign(w) * np.abs(w) ** params.p
    return float(np.max(np.abs(applied - rhs)) / np.max(np.abs(rhs)))


def riesz_kernel_theta(params: CylinderParams, z):
    """Angular kernel profile, hypergeometric in z^2, normalized to 1 at 0."""
    zs = np.asarray(z, dtype=np.float64)
    if np.any(zs < 0.0) or np.any(zs >= 1.0):
        raise DomainError("kernel argument must lie in [0, 1)")
    half_n = 0.5 * params.n
    x = np.atleast_1d(zs) ** 2
    out = hyp2f1(half_n - params.gamma, 1.0 - params.gamma, half_n, x)
    return float(out[0]) if np.ndim(z) == 0 else out


@dataclass(frozen=True)
class AsymptoticFit:
    """Leading tail term a e^{-sigma t} cos(tau t) + b e^{-sigma t} sin(tau t)."""

    sigma: float
    tau: float
    amplitude_cos: float
    amplitude_sin: float
    residual: float
    window: tuple


def _design_columns(t, sigma, tau):
    damp = np.exp(-sigma * t)
    if tau == 0.0:
        return damp[:, None]
    return np.column_stack([damp * np.cos(tau * t), damp * np.sin(tau * t)])


def _candidate_fit(t, y, rates):
    """The ``(sigma, tau)`` pair whose single term fits y best, by linear least squares."""
    best = None
    norm = math.sqrt(float(np.mean(y**2)))
    for sigma, tau in rates:
        cols = _design_columns(t, sigma, tau)
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid = math.sqrt(float(np.mean((cols @ coef - y) ** 2))) / norm
        amps = (coef[0], 0.0) if tau == 0.0 else (coef[0], coef[1])
        if best is None or resid < best[0]:
            best = (resid, sigma, tau, amps)
    return best


def _pencil_rates(t, y):
    """Decaying rates ``(sigma, tau)`` in y's samples, by the matrix pencil.

    Hua & Sarkar (IEEE TASSP 1990): the samples, decimated to at most
    PENCIL_SAMPLES, fill a Hankel matrix; its right singular vectors
    above PENCIL_RANK_FLOOR of the largest span the signal, and the
    eigenvalues ``z`` of the pencil of that basis shifted by one sample
    are ``exp(-(sigma - i tau) dt)``.  One rate per conjugate pair.
    """
    stride = -(-t.size // PENCIL_SAMPLES)
    ys = y[::stride]
    dt = stride * float(t[1] - t[0])
    hankel = np.lib.stride_tricks.sliding_window_view(ys, ys.size // 2 + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    basis = vh[: int(np.count_nonzero(sv > PENCIL_RANK_FLOOR * sv[0]))].T
    shift, *_ = np.linalg.lstsq(basis[:-1], basis[1:], rcond=None)
    z = np.linalg.eigvals(shift)
    sigma = -np.log(np.abs(z)) / dt
    tau = np.angle(z) / dt
    keep = (sigma > 0.0) & (tau >= 0.0)
    return list(zip(sigma[keep].tolist(), tau[keep].tolist()))


def frobenius_fit(w: GridFunction, window=None, candidate_roots=None) -> AsymptoticFit:
    """Fit the leading decaying term of a profile tail.

    The default window runs from the first to the last tail sample of
    :func:`grid.tail_mask`: where the tail's envelope lies between 1e-13
    and 1e-3 of the peak.  The candidate rates are the given roots' ``(sigma, tau)``
    pairs, or without roots the decaying rates that the matrix pencil
    finds in the window (:func:`_pencil_rates`).  The candidate whose
    single term fits the window best by linear least squares is the
    leading term.  Raises NoFitError when its normalized RMS misfit
    exceeds FIT_RESIDUAL_MAX.
    """
    w.require_real()
    vals = w.samples
    tg = w.t
    if window is None:
        if not np.any(vals):
            raise NoFitError("profile vanishes")
        tail = tg[tail_mask(vals)[0]]
        if tail.size < 8:
            raise WindowError(
                f"{tail.size} samples right of the peak lie between "
                f"{TAIL_FLOOR:.0e} and {TAIL_CEILING:.0e} of it; pass a window"
            )
        window = (tail[0], tail[-1])
    lo, hi = float(window[0]), float(window[1])
    if not (w.t_min <= lo < hi <= w.t_max):
        raise ValidationError(f"fit window {window!r} outside the grid")
    sel = (tg >= lo - 1e-12) & (tg <= hi + 1e-12)
    t, y = tg[sel], vals[sel]
    if t.size < 8:
        raise ValidationError("fit window holds fewer than 8 samples")
    scale = float(np.max(np.abs(y)))
    if scale == 0.0:
        raise NoFitError("profile vanishes on the fit window")
    yn = y / scale

    if candidate_roots:
        rates = [(root.sigma, root.tau) for root in candidate_roots]
    else:
        rates = _pencil_rates(t, yn)
        if not rates:
            raise NoFitError("the fit window holds no decaying term")
    resid, sigma, tau, amps = _candidate_fit(t, yn, rates)
    if not resid <= FIT_RESIDUAL_MAX:
        raise NoFitError(
            f"best tail fit misses by {resid:.3e} (threshold {FIT_RESIDUAL_MAX:.0e})"
        )
    return AsymptoticFit(
        sigma=float(sigma),
        tau=float(tau),
        amplitude_cos=scale * amps[0],
        amplitude_sin=scale * amps[1],
        residual=float(resid),
        window=(lo, hi),
    )
