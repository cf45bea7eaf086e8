"""Reference values computed apart from cylspec.

Every correctness check of the benchmark compares the program's output
with a value from this module or with a property the method must have.
Nothing here imports cylspec: the symbol, its roots, the hypergeometric
kernels and the closed-form profile are rebuilt from their formulas with
``mpmath`` (30 digits) and ``scipy.special``.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import loggamma

mpmath.mp.dps = 30


def mode_constants(n, gamma, mode):
    """(A_m, B_m) of the mode symbol, A_m - B_m = gamma."""
    half = 0.5 * math.sqrt((n / 2.0 - 1.0) ** 2 + mode * (mode + n - 2))
    return 0.5 + gamma / 2.0 + half, 0.5 - gamma / 2.0 + half


def theta_mp(n, gamma, mode, z):
    """Theta_m(z) = 2^(2g) G(A+iz/2) G(A-iz/2) / (G(B+iz/2) G(B-iz/2)), in mpmath."""
    a, b = mode_constants(n, gamma, mode)
    a, b, g = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(gamma)
    w = mpmath.mpc(0, 1) * mpmath.mpc(z) / 2
    return (
        mpmath.power(2, 2 * g)
        * mpmath.gamma(a + w)
        * mpmath.gamma(a - w)
        * mpmath.rgamma(b + w)
        * mpmath.rgamma(b - w)
    )


def hardy_constant_mp(n, gamma):
    """Lambda(n, gamma) = Theta_0(0)."""
    return float(mpmath.re(theta_mp(n, gamma, 0, 0)))


def first_root_mp(n, gamma, kappa, mode=0):
    """sigma_0: the axis root of Theta_m(i sigma) = kappa in (0, 2 B_m).

    At kappa = 0 it is the symbol zero 2 B_m.  For 0 < kappa < Theta_m(0)
    the axis symbol falls monotonically from Theta_m(0) to 0 on the
    interval, so bisection in mpmath brackets exactly one crossing.
    """
    _, b = mode_constants(n, gamma, mode)
    if kappa == 0.0:
        return 2.0 * b
    lo, hi = mpmath.mpf(0), mpmath.mpf(2 * b)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mpmath.re(theta_mp(n, gamma, mode, mpmath.mpc(0, mid))) > kappa:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def kernel_k0_mp(n, gamma, t):
    """K0(t) at the critical exponent (q0 = 0)."""
    a, b, c = (n + 2.0 * gamma) / 2.0, 1.0 + gamma, n / 2.0
    at = mpmath.mpf(abs(t))
    return float(mpmath.exp(-a * at) * mpmath.hyp2f1(a, b, c, mpmath.exp(-2 * at)))


def riesz_theta_mp(n, gamma, z):
    z = mpmath.mpf(z)
    return float(mpmath.hyp2f1(n / 2.0 - gamma, 1.0 - gamma, n / 2.0, z * z))


def symbol_scipy(n, gamma, xi):
    """Theta_0 on real frequencies through scipy.special.loggamma."""
    a, b = mode_constants(n, gamma, 0)
    w = 0.5j * np.asarray(xi, dtype=float)
    lg = loggamma(a + w) + loggamma(a - w) - loggamma(b + w) - loggamma(b - w)
    return np.exp(2.0 * gamma * math.log(2.0) + lg).real


def profile_residual(n, gamma, kappa, step, w):
    """Sup norm of (Theta_0(D) - kappa) w - |w|^(p-1) w on the periodized grid."""
    p = (n + 2.0 * gamma) / (n - 2.0 * gamma)
    xi = 2.0 * math.pi * np.fft.fftfreq(w.size, d=step)
    applied = np.fft.ifft((symbol_scipy(n, gamma, xi) - kappa) * np.fft.fft(w)).real
    return float(np.max(np.abs(applied - np.sign(w) * np.abs(w) ** p)))


def bubble_unit(n, gamma, t):
    """C cosh(t)^(-(n - 2 gamma)/2), the solution of Theta w = Lambda w^p.

    C = (Lambda G(n/2 - g) / G(n/2 + g))^(-(n - 2g)/(4g)); C = pi/2 at
    n = 3, g = 1/2.
    """
    lam = hardy_constant_mp(n, gamma)
    c = (lam * gamma_fn(n / 2.0 - gamma) / gamma_fn(n / 2.0 + gamma)) ** (
        -(n - 2.0 * gamma) / (4.0 * gamma)
    )
    return c * np.cosh(t) ** (-(n - 2.0 * gamma) / 2.0)


def bubble_closed_form(n, gamma, t):
    """Critical kappa = 0 solution of the solver's equation Theta w = w^p.

    Scaling the unit bubble by Lambda^(1/(p-1)) moves Lambda out of the
    nonlinearity.
    """
    p = (n + 2.0 * gamma) / (n - 2.0 * gamma)
    return hardy_constant_mp(n, gamma) ** (1.0 / (p - 1.0)) * bubble_unit(n, gamma, t)
