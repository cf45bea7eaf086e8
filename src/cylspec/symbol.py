"""Fourier symbol of the fractional Hardy operator on the cylinder.

After the Emden-Fowler substitution ``t = -log r`` the operator acts
mode-by-mode on spherical harmonics, and on mode ``m`` it becomes the
Fourier multiplier

    Theta_m(xi) = 2^(2 gamma) G(A_m + i xi/2) G(A_m - i xi/2)
                  / (G(B_m + i xi/2) G(B_m - i xi/2)),

with ``G`` the Gamma function and ``A_m - B_m = gamma``.  Everything in
this module is elementary Gamma-ratio algebra: the Hardy constant, the
mode constants, the plain and subcritically shifted symbols, the
stability classification of the Hardy term, and the closed-form
convolution kernel of the shifted operator.

One private evaluator serves :func:`theta`, :func:`theta_shifted`,
:func:`theta_derivative` and the root search.  It stacks the Gamma
arguments into one ``log_gamma`` call (and one ``digamma`` call for the
slope), and tests each for a pole once: the denominator pair
``B_m +- w`` in one mask (the symbol's zeros), the numerator in
``log_gamma`` (the symbol's poles).

Two symmetries halve the work on real frequencies.  There ``w = i xi/2``
is imaginary, so ``lg(A - w) = conj(lg(A + w))`` (DLMF §5.4, from
``Gamma(conj s) = conj Gamma(s)``; ``scipy.special.loggamma`` keeps it
bit for bit), and each conjugate pair of log-Gammas is twice the real
part of one.  And ``Theta_m`` is even, so :func:`theta_lattice` returns
a lattice's symbol as the half spectrum :func:`~cylspec.grid.multiply`
takes, the real values on the non-negative frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ThresholdError, ValidationError
from .grid import angular_frequencies
from .specfun import digamma, hyp2f1, log_gamma, near_pole

__all__ = [
    "CylinderParams",
    "ModeIndex",
    "hardy_constant",
    "mode_constants",
    "theta",
    "theta_lattice",
    "theta_shifted",
    "theta_derivative",
    "constant_A",
    "stability_classify",
    "solve_p1",
    "kernel_K0",
]

STABILITY_TOL = 1e-9
_LOG2 = math.log(2.0)
_FAR_W = 5e3  # |Re z| = 1e4
_FAR_TERMS = 4
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30)  # B_0 .. B_8


def hardy_constant(n, gamma):
    """Best constant in the fractional Hardy inequality.

    ``Lambda(n, gamma) = 2^(2 gamma) (G((n+2g)/4) / G((n-2g)/4))^2``;
    tends to 1 as ``gamma -> 0`` and to the square of the half-dimension
    ratio as the order approaches 1.
    """
    n = float(n)
    gamma = float(gamma)
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must be in (0, 1), got {gamma}")
    if n - 2.0 * gamma <= 0.0:
        raise ValidationError(f"n - 2 gamma must be positive, got n={n}, gamma={gamma}")
    lg = log_gamma(np.array([n + 2.0 * gamma, n - 2.0 * gamma]) / 4.0 + 0j)
    return float(np.exp(2.0 * gamma * _LOG2 + 2.0 * (lg[0] - lg[1])).real)


@dataclass(frozen=True)
class CylinderParams:
    """Problem parameters: dimension, order, subcritical exponent, Hardy shift.

    ``p`` defaults to the critical exponent ``(n + 2 gamma)/(n - 2 gamma)``,
    for which the subcritical shift ``q0`` vanishes.  ``kappa`` is the
    coefficient of the Hardy term and must be non-negative.
    """

    n: int
    gamma: float
    p: float = None  # type: ignore[assignment]  # resolved to critical in __post_init__
    kappa: float = 0.0

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValidationError(f"dimension n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.n - 2.0 * self.gamma <= 0.0:
            raise ValidationError(
                f"n - 2 gamma must be positive, got n={self.n}, gamma={self.gamma}"
            )
        if self.p is None:
            object.__setattr__(self, "p", self.p_critical)
        if not self.p_lower < self.p <= self.p_critical + 1e-14:
            raise ValidationError(
                f"p must lie in ({self.p_lower}, {self.p_critical}], got {self.p}"
            )
        if self.kappa < 0.0:
            raise ValidationError(f"kappa must be non-negative, got {self.kappa}")
        # Derived shift is non-negative on the admissible range and zero
        # at the critical exponent, up to the rounding of 2 gamma/(p - 1),
        # which grows like 2 gamma p/(p - 1)^2 as gamma -> 0.
        p = self.p
        assert self.q0 >= -1e-13 * (1.0 + self.n + 2.0 * self.gamma * p / (p - 1.0) ** 2)

    @property
    def p_critical(self):
        return (self.n + 2.0 * self.gamma) / (self.n - 2.0 * self.gamma)

    @property
    def p_lower(self):
        return self.n / (self.n - 2.0 * self.gamma)

    @property
    def is_critical(self):
        return abs(self.p - self.p_critical) <= 1e-12

    @property
    def q0(self):
        """Subcritical decay shift ``-(n - 2 gamma)/2 + 2 gamma/(p - 1)``."""
        return -(self.n - 2.0 * self.gamma) / 2.0 + 2.0 * self.gamma / (self.p - 1.0)

    @cached_property
    def lam(self):
        """Hardy constant for these ``(n, gamma)``."""
        return hardy_constant(self.n, self.gamma)


@dataclass(frozen=True)
class ModeIndex:
    """Spherical-harmonic mode: degree, Laplace eigenvalue, multiplicity."""

    degree: int
    eigenvalue: float
    multiplicity: int

    @classmethod
    def of(cls, n, degree):
        if int(degree) != degree or degree < 0:
            raise ValidationError(f"mode degree must be an integer >= 0, got {degree}")
        ell = int(degree)
        n = int(n)
        mu = float(ell * (ell + n - 2))
        mult = math.comb(n + ell - 1, ell)
        if ell >= 2:
            mult -= math.comb(n + ell - 3, ell - 2)
        return cls(degree=ell, eigenvalue=mu, multiplicity=mult)


def mode_constants(params, mode=0):
    """Constants ``(A_m, B_m)``, ``A_m - B_m = gamma``, of the integer degree ``m >= 0``."""
    mode = ModeIndex.of(params.n, mode)
    half = 0.5 * math.sqrt((params.n / 2.0 - 1.0) ** 2 + mode.eigenvalue)
    a = 0.5 + params.gamma / 2.0 + half
    b = 0.5 - params.gamma / 2.0 + half
    return a, b


def _far(a, w):
    """Entries where the large-``w`` expansion replaces the four log-Gammas.

    The log-Gammas grow like ``|w|`` and cancel to ``O(log |w|)``, so
    their sum loses about ``eps |w|`` absolutely (``Theta`` read 0.6-1.0
    ``eps |z|`` off against mpmath from ``|z| = 1e3`` to ``3e9``).  Past
    ``|Re z| = 1e4``, and ``50 A_m`` where four terms of the expansion
    reach round-off, the expansion is the more accurate.
    """
    im = np.abs(w.imag)
    far = im >= max(_FAR_W, 50.0 * a)
    if far.any():  # the common case, nothing far, costs one comparison
        far &= np.abs(w.real) <= im
    return far


def _far_log_ratio(a, b, w, slope):
    """Large-``|w|`` expansion of :func:`_log_ratio`.

    Stirling's series ``lg(s+a) ~ (s+a-1/2) log s - s + log(2 pi)/2 +
    sum_k (-1)^(k+1) B_(k+1)(a) / (k (k+1) s^k)`` at ``s = +-w``: the odd
    powers cancel, leaving ``(a-b) (Log w + Log(-w)) + sum_j d_j w^(-2j)``
    with ``d_j = -(B_(2j+1)(a) - B_(2j+1)(b)) / (j (2j+1))`` (Bernoulli
    polynomials ``B_k``).  ``Log w + Log(-w)`` is ``Log(-w^2)`` off the
    real axis, without overflowing ``w^2``.
    """
    inv = (1.0 / w) ** 2
    value = (a - b) * (np.log(w) + np.log(-w))
    deriv = 2.0 * (a - b) / w if slope else None
    for j in range(1, _FAR_TERMS + 1):
        k = 2 * j + 1  # B_k(a) - B_k(b); the constant terms B_k cancel
        bk = sum(math.comb(k, i) * _BERNOULLI[i] * (a ** (k - i) - b ** (k - i)) for i in range(k))
        term = -bk / (j * k) * inv**j
        value = value + term
        if slope:
            deriv = deriv - 2.0 * j * term / w
    return value, deriv


def _log_ratio(a, b, w, offset, slope):
    """``offset + lg(a+w) + lg(a-w) - lg(b+w) - lg(b-w)`` off the Gamma poles.

    With ``slope`` also its ``w``-derivative, the digamma combination,
    else ``None``.  Entries far along the real direction of ``z`` take
    the expansion of :func:`_far_log_ratio`; this is the one place that
    chooses.  Summing in ``+-w`` pairs keeps the direct value exactly
    even in ``w``.  When every ``w`` is imaginary (real ``z``, no shift)
    each pair is ``2 Re lg``, bit for bit the same sum from two rows.
    """
    far = _far(a, w)
    if far.any():
        value, deriv = np.empty_like(w), np.empty_like(w) if slope else None
        value[far], d_far = _far_log_ratio(a, b, w[far], slope)
        value[far] += offset
        value[~far], d_near = _log_ratio(a, b, w[~far], offset, slope)
        if slope:
            deriv[far], deriv[~far] = d_far, d_near
        return value, deriv
    args = np.stack([a + w, a - w, b + w, b - w])
    if np.any(w.real):
        lg = log_gamma(args)
        value = offset + (lg[0] + lg[1]) - (lg[2] + lg[3])
    else:  # complex, as exp of a real array differs from the complex exp by an ulp
        lg = 2.0 * log_gamma(args[::2]).real + 0j
        value = offset + lg[0] - lg[1]
    if not slope:
        return value, None
    psi = digamma(args)
    return value, psi[0] - psi[1] - psi[2] + psi[3]


def _evaluate(params, mode, z, shift=0.0, slope=False):
    """``Theta_m`` at ``w = (shift + i z)/2``, with ``Theta_m'(z)`` when ``slope``.

    ``z`` of any shape in, arrays of its shape out: the values, or the
    pair (values, derivatives).  At the symbol's zeros the value is
    exactly 0 and the derivative the limit of :func:`theta_derivative`.
    """
    a, b = mode_constants(params, mode)
    z = np.asarray(z, dtype=np.complex128)
    w = 0.5 * (shift + 1j * z.ravel())
    pole = near_pole(np.stack([b + w, b - w]))  # disjoint rows, as b > 0
    zero = pole[0] | pole[1]
    c = 2.0 * params.gamma * _LOG2
    # Move the zeros to w = 0 before calling log_gamma, then restore.
    logr, logd = _log_ratio(a, b, np.where(zero, 0.0, w), c, slope)
    th = np.exp(logr)
    th[zero] = 0.0
    # Reflection symmetry makes the ratio real whenever w is real (the
    # imaginary axis of the symbol); drop the round-off phase there.
    th.imag[w.imag == 0.0] = 0.0
    if not slope:
        return th.reshape(z.shape)
    d = th * 0.5j * logd
    if zero.any():
        # b + s w = -j vanishes; log j! joins the exponent, so large j cannot overflow.
        wz, s = w[zero], np.where(pole[0][zero], 1.0, -1.0)
        j = np.round(-(b + s * wz).real)
        lg = log_gamma(np.stack([a + wz, a - wz, b - s * wz]))
        rest = np.exp(c + lg[0] + lg[1] - lg[2] + [math.lgamma(k + 1.0) for k in j])
        d[zero] = s * 0.5j * rest * np.where(j % 2, -1.0, 1.0)
    return th.reshape(z.shape), d.reshape(z.shape)


def theta(params, mode, z):
    """Symbol ``Theta_m(z)`` of the Hardy operator on mode ``m``.

    Even in ``z``, conjugate-symmetric, real on both axes, and growing
    like ``|z|^(2 gamma)`` along the real direction.  Accepts scalar or
    array ``z``; scalar in, scalar out.
    """
    out = _evaluate(params, mode, z)
    return complex(out) if np.ndim(z) == 0 else out


def theta_lattice(params, mode, n, step):
    """``Theta_m`` on the ``n``-point lattice of spacing ``step``, as a half spectrum.

    The float64 values of ``theta(params, mode, angular_frequencies(n,
    step)).real`` on the ``n//2 + 1`` non-negative frequencies, bit for
    bit; the negative ones hold the same values, as ``Theta_m`` is even.
    Memoized on ``(params.n, params.gamma, mode, n, step)``, all the
    symbol depends on, so repeated solves on one lattice share the array,
    which is read-only, whatever their ``p`` and ``kappa``.
    """
    return _lattice(params.n, params.gamma, mode, n, step)


@lru_cache(maxsize=32)
def _lattice(dim, gamma, mode, n, step):
    params = CylinderParams(n=dim, gamma=gamma)
    half = theta(params, mode, np.abs(angular_frequencies(n, step)[: n // 2 + 1])).real.copy()
    half.flags.writeable = False
    return half


def theta_shifted(params, mode, z):
    """Symbol of the subcritically shifted operator: ``z i`` -> ``q0 + z i``.

    Coincides with :func:`theta` at the critical exponent, where the
    shift ``q0`` vanishes.
    """
    out = _evaluate(params, mode, z, params.q0)
    return complex(out) if np.ndim(z) == 0 else out


def theta_derivative(params, mode, z):
    """d Theta_m / dz, via the digamma logarithmic derivative.

    At the symbol zeros (denominator Gamma poles) the log-derivative
    form is 0 * inf; there the derivative is the finite limit obtained
    from the reciprocal-Gamma residue, 1/G(s) ~ (-1)^j j! (s + j).  At
    the symbol poles ``log_gamma`` raises ``PoleError``.
    """
    out = _evaluate(params, mode, z, slope=True)[1]
    return complex(out) if np.ndim(z) == 0 else out


def constant_A(params):
    """Linear-term constant of the subcritical profile equation.

    Equals the shifted symbol at frequency zero; coincides with the
    Hardy constant exactly at the critical exponent.
    """
    return float(theta_shifted(params, 0, 0.0).real)


def stability_classify(params):
    """Classify ``p A(p)`` against the Hardy constant.

    Returns ``"stable"`` when ``p A < Lambda`` and ``"unstable"`` when
    ``p A > Lambda``; raises :class:`ThresholdError` inside the pinned
    tolerance ``1e-9`` of the threshold, where the sign is not decidable
    at working precision.
    """
    margin = params.p * constant_A(params) - params.lam
    if abs(margin) <= STABILITY_TOL:
        raise ThresholdError(
            f"p A(p) - Lambda = {margin:.3e} is within {STABILITY_TOL} of the threshold"
        )
    return "stable" if margin < 0.0 else "unstable"


def solve_p1(n, gamma):
    """Exponent at which ``p A(p) = Lambda``, by Brent's method.

    The product is increasing across the bracket: it tends to
    ``-Lambda`` at the lower endpoint (where ``A`` collapses through a
    Gamma pole) and equals ``(p_crit - 1) Lambda > 0`` at the critical
    exponent.  The returned root satisfies ``|p1 A(p1) - Lambda| <=
    1e-10``.
    """
    from scipy.optimize import brentq  # at first use, not at `import cylspec`

    lam = hardy_constant(n, gamma)

    def margin(p):
        return p * constant_A(CylinderParams(n=n, gamma=gamma, p=p)) - lam

    base = CylinderParams(n=n, gamma=gamma)
    lo = base.p_lower * (1.0 + 1e-12)
    hi = base.p_critical
    flo, fhi = margin(lo), margin(hi)
    if not (flo < 0.0 < fhi):
        raise DomainError(
            f"stability margin does not change sign on ({lo}, {hi}): {flo:.3e}, {fhi:.3e}"
        )
    p1 = brentq(margin, lo, hi, xtol=np.finfo(float).tiny, rtol=4.0 * np.finfo(float).eps)
    res = abs(margin(p1))
    if res > 1e-10:
        raise DomainError(f"root residual {res:.3e} exceeds 1e-10")
    return p1


def kernel_K0(params, t):
    """Radial convolution kernel of the shifted operator itself, not of its inverse.

    ``theta_shifted(xi) - theta_shifted(0) = C |S^(n-1)| int_R (1 - exp(-i xi t)) K0(t) dt``,
    with the fractional Laplacian's ``C = 4^g Gamma(n/2 + g) / (pi^(n/2) |Gamma(-g)|)``
    and the unit sphere's area ``|S^(n-1)|`` (``C |S^2| = 4/pi`` at n = 3, g = 1/2).

        K0(t) = exp(-q0 t) exp(-(n+2g)|t|/2) * 2F1((n+2g)/2, 1+g; n/2; exp(-2|t|))

    is, at the critical exponent, the spherical average of the fractional Laplacian's
    kernel ``(2 cosh t - 2 s)^(-(n+2g)/2)``.  It behaves like ``|t|^(-1-2g)`` at the
    origin and decays with rates ``(n+2g)/2 +- q0`` at ``t -> +-inf``.
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr == 0.0):
        raise DomainError("kernel_K0 is singular at t = 0")
    n, g, q0 = params.n, params.gamma, params.q0
    a, b, c = (n + 2.0 * g) / 2.0, 1.0 + g, n / 2.0
    ts = np.atleast_1d(t_arr)
    at = np.abs(ts)
    out = np.exp(-q0 * ts - a * at) * hyp2f1(a, b, c, np.exp(-2.0 * at))
    return float(out[0]) if np.ndim(t) == 0 else out
