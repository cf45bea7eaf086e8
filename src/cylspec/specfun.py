"""Complex log-Gamma, digamma, polygamma, and the Gauss hypergeometric function.

These four cover every special-function need of the symbol and kernel
machinery.  The numerics are ``scipy.special`` (``loggamma``, ``psi``,
``polygamma``, ``hyp2f1``); this module is the boundary around them.
It checks the input, turns poles and domain violations into named
errors, and keeps the calling conventions: scalar in, scalar out, array
in, array out.  A scalar result is bit-identical to the same entry of a
vector result, and a row of a stacked input to that row alone.  The pole
test of ``log_gamma`` is the one on the symbol's numerator Gammas, whose
poles are the symbol's.

``log_gamma`` and ``digamma`` take complex arguments; ``polygamma`` one
real ``x > 0``; ``hyp2f1`` real parameters and real ``|x| < 1``.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError, PoleError, ValidationError

__all__ = ["log_gamma", "digamma", "polygamma", "hyp2f1", "near_pole"]

_GAMMA_POLE_TOL = 1e-14
_HYP2F1_POLE_TOL = 1e-12


def near_pole(u, tol=_GAMMA_POLE_TOL):
    """Mask of the entries of ``u`` within ``tol`` of a non-positive integer."""
    u = np.asarray(u)
    k = np.round(u.real)
    return (k <= 0.0) & (np.abs(u - k) <= tol)


def _gamma_family(ufunc, z, name):
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: argument must be finite, got {z!r}")
    on_pole = near_pole(arr)
    if np.any(on_pole):
        raise PoleError(f"{name}: argument {arr[on_pole][0]} is a non-positive integer")
    out = ufunc(np.atleast_1d(arr)).reshape(arr.shape)
    return complex(out) if np.ndim(z) == 0 else out


def log_gamma(z):
    """Principal-branch logarithm of the Gamma function.

    Parameters
    ----------
    z : complex or array_like of complex
        Points to evaluate at.  Non-positive integers (within ``1e-14``)
        are poles.

    Returns
    -------
    complex or numpy.ndarray
        ``log Gamma(z)``, continued analytically from the positive real
        axis, so ``exp(log_gamma(z)) == Gamma(z)`` and
        ``log_gamma(conj(z)) == conj(log_gamma(z))`` hold everywhere.

    Raises
    ------
    PoleError
        If any argument is within ``1e-14`` of a non-positive integer.
    ValidationError
        If any argument is non-finite.
    """
    return _gamma_family(special.loggamma, z, "log_gamma")


def digamma(z):
    """Logarithmic derivative of the Gamma function, ``psi(z)``.

    Parameters
    ----------
    z : complex or array_like of complex
        Points to evaluate at; poles as for :func:`log_gamma`.

    Returns
    -------
    complex or numpy.ndarray
        ``psi(z)`` with conjugate symmetry ``digamma(conj(z)) ==
        conj(digamma(z))``.

    Raises
    ------
    PoleError
        If any argument is within ``1e-14`` of a non-positive integer.
    ValidationError
        If any argument is non-finite.
    """
    return _gamma_family(special.psi, z, "digamma")


def polygamma(k, x):
    """``psi^(k)(x)``, the k-th derivative of the digamma, at one real ``x > 0``."""
    if not 0.0 < x < np.inf:
        raise ValidationError(f"polygamma: argument must be finite and positive, got {x!r}")
    return float(special.polygamma(k, x))


def hyp2f1(a, b, c, x):
    """Gauss hypergeometric function for real parameters and ``|x| < 1``.

    Integer ``c - a - b``, where the ``1 - x`` connection formula
    degenerates into logarithmic terms, is handled by ``scipy.special``
    and needs no special casing here.

    Parameters
    ----------
    a, b, c : float
        Real parameters; ``c`` must not be a non-positive integer.
    x : float or array_like of float
        Arguments with ``|x| < 1``.

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    PoleError
        If ``c`` is within ``1e-12`` of a non-positive integer.
    DomainError
        If any ``|x| >= 1``.
    ValidationError
        If a parameter or argument is non-finite.
    """
    a, b, c = float(a), float(b), float(c)
    xs = np.asarray(x, dtype=np.float64)
    if not (np.all(np.isfinite([a, b, c])) and np.all(np.isfinite(xs))):
        raise ValidationError("hyp2f1: parameters must be finite")
    if near_pole(c, _HYP2F1_POLE_TOL):
        raise PoleError(f"hyp2f1: c={c} is a non-positive integer")
    outside = np.abs(xs) >= 1.0
    if np.any(outside):
        raise DomainError(f"hyp2f1: |x| must be < 1, got x={xs[outside][0]}")
    out = special.hyp2f1(a, b, c, np.atleast_1d(xs)).reshape(xs.shape)
    return float(out) if np.ndim(x) == 0 else out
