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
from scipy.optimize import least_squares

from .errors import DomainError, NoFitError, ValidationError, WindowError
from .grid import GridFunction, angular_frequencies, multiply
from .specfun import hyp2f1, log_gamma
from .symbol import CylinderParams, theta

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

_CONSTANT_SPREAD = 1e-10


def bubble_amplitude(params: CylinderParams) -> float:
    """Peak value of the cosh profile; always exceeds 1."""
    g = params.gamma
    ratio = math.exp(
        (log_gamma(0.5 * params.n - g) - log_gamma(0.5 * params.n + g)).real
    )
    c = (params.lam * ratio) ** (-(params.n - 2.0 * g) / (4.0 * g))
    if not c > 1.0:
        raise DomainError(f"degenerate profile amplitude {c!r}")
    return c


def bubble(params: CylinderParams, t):
    """Evaluate C (cosh t)^{-(n-2 gamma)/2} at t (scalar or array)."""
    a = 0.5 * (params.n - 2.0 * params.gamma)
    ts = np.abs(np.asarray(t, dtype=np.float64))
    # log cosh, overflow-safe for any t
    logcosh = ts + np.log1p(np.exp(-2.0 * ts)) - math.log(2.0)
    out = bubble_amplitude(params) * np.exp(-a * logcosh)
    return float(out) if np.ndim(t) == 0 else out


def cylinder_constant(params: CylinderParams) -> float:
    """The constant solving the profile equation, (Lambda - kappa)^{1/(p-1)}."""
    gap = params.lam - params.kappa
    if gap <= 0.0:
        raise DomainError("no positive constant solution beyond the Hardy constant")
    return gap ** (1.0 / (params.p - 1.0))


def _tail_padded_multiplier(params, samples, step, rate):
    """Apply the kappa=0 symbol with exact exponential tails appended.

    Periodizing a window chops the profile's tails; appending the known
    exponential continuation before the transform pushes the seam error
    below the tail tolerance instead.
    """
    n = samples.size
    t_pad = step * np.arange(1, n + 1)
    right = samples[-1] * np.exp(-rate * t_pad)
    left = (samples[0] * np.exp(-rate * t_pad))[::-1]
    ext = np.concatenate([left, samples, right])
    sym = theta(params, 0, angular_frequencies(ext.size, step))
    return multiply(sym, ext).real[n : 2 * n]


def bubble_residual(params: CylinderParams, profile: GridFunction) -> float:
    """Relative sup-norm defect of the profile in the critical equation.

    Compares the kappa=0 operator applied to the profile against
    Lambda * profile^p.  Constant profiles are transformed without
    padding (periodization is exact for them); decaying profiles get
    the exponential tail correction and must decay to DECAY_MARGIN_MAX
    by the window edge.
    """
    w = profile.samples.real
    peak = float(np.max(np.abs(w)))
    if peak == 0.0:
        return 0.0
    spread = float(np.max(w) - np.min(w))
    if spread <= _CONSTANT_SPREAD * peak:
        sym = theta(params, 0, angular_frequencies(w.size, profile.step))
        applied = multiply(sym, w).real
    else:
        edge = max(abs(w[0]), abs(w[-1])) / peak
        if edge > DECAY_MARGIN_MAX:
            raise WindowError(
                f"window edge ratio {edge:.3e} exceeds {DECAY_MARGIN_MAX:.0e}; widen the grid"
            )
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


def _candidate_fit(t, y, roots):
    best = None
    norm = math.sqrt(float(np.mean(y**2)))
    for root in roots:
        cols = _design_columns(t, root.sigma, root.tau)
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid = math.sqrt(float(np.mean((cols @ coef - y) ** 2))) / norm
        amps = (coef[0], 0.0) if root.tau == 0.0 else (coef[0], coef[1])
        if best is None or resid < best[0]:
            best = (resid, root.sigma, root.tau, amps)
    return best


def _crossings(t, y):
    sign = np.sign(y)
    hits = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    frac = y[hits] / (y[hits] - y[hits + 1])
    return t[hits] + frac * (t[hits + 1] - t[hits])


def _free_fit(t, y):
    t0 = t[0]
    tc = t - t0
    cross = _crossings(t, y)
    if cross.size >= 3:
        tau0 = math.pi / float(np.mean(np.diff(cross)))
        # envelope slope from log of the running amplitude
        env = np.abs(y) + 1e-300
        sigma0 = max(-np.polyfit(tc, np.log(env), 1)[0], 1e-3)

        def resid(x):
            s, ta, a, b = x
            return np.exp(-s * tc) * (a * np.cos(ta * tc) + b * np.sin(ta * tc)) - y

        sol = least_squares(
            resid,
            x0=[sigma0, tau0, y[0], 0.0],
            bounds=([0.0, 0.0, -np.inf, -np.inf], [np.inf, np.inf, np.inf, np.inf]),
        )
        s, ta, a, b = sol.x
    else:
        env = np.abs(y) + 1e-300
        slope, intercept = np.polyfit(tc, np.log(env), 1)
        sigma0, amp0 = max(-slope, 1e-3), math.copysign(math.exp(intercept), y[0])

        def resid(x):
            s, a = x
            return a * np.exp(-s * tc) - y

        sol = least_squares(resid, x0=[sigma0, amp0])
        s, a = sol.x
        ta, b = 0.0, 0.0
    misfit = math.sqrt(float(np.mean(sol.fun**2) / np.mean(y**2)))
    # shift amplitudes from the t - t0 frame back to absolute t
    grow = math.exp(s * t0)
    cos0, sin0 = math.cos(ta * t0), math.sin(ta * t0)
    return misfit, s, ta, (grow * (a * cos0 - b * sin0), grow * (a * sin0 + b * cos0))


def frobenius_fit(
    w: GridFunction,
    window=None,
    candidate_roots=None,
    residual_threshold: float = FIT_RESIDUAL_MAX,
) -> AsymptoticFit:
    """Fit the leading decaying term of a profile tail.

    With candidate roots, picks the one whose (sigma, tau) pair fits the
    window best by linear least squares.  Without candidates, estimates
    sigma from the log envelope and tau from zero-crossing spacing, then
    refines both by nonlinear least squares.  Raises NoFitError when the
    best normalized RMS misfit exceeds residual_threshold.
    """
    vals = w.samples.real
    tg = w.t
    if window is None:
        peak_t = tg[int(np.argmax(np.abs(vals)))]
        span = w.t_max - peak_t
        window = (w.t_max - span / 3.0, w.t_max - 0.1 * span)
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
        resid, sigma, tau, amps = _candidate_fit(t, yn, candidate_roots)
    else:
        resid, sigma, tau, amps = _free_fit(t, yn)
    if not resid <= residual_threshold:
        raise NoFitError(
            f"best tail fit misses by {resid:.3e} (threshold {residual_threshold:.0e})"
        )
    return AsymptoticFit(
        sigma=float(sigma),
        tau=float(tau),
        amplitude_cos=scale * amps[0],
        amplitude_sin=scale * amps[1],
        residual=float(resid),
        window=(lo, hi),
    )
