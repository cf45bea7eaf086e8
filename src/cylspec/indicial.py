"""Indicial roots: poles of 1/(Theta_m(z) - kappa) in the upper half-plane.

The resolvent of the mode-``m`` operator has simple poles at the points
``z_j = tau_j + i sigma_j`` where the symbol crosses ``kappa``.  Their
locations and residues drive everything downstream: the exponents and
coefficients of the Green's-function series and the decay rates of
linear solutions.  The search exploits what is known analytically about
the symbol restricted to the imaginary axis, where it is real: it
decreases from the mode's Hardy constant to a zero at ``2 B_m``, and in
each later window between a symbol pole ``2 A_m + 2(j-1)`` and the
symbol zero ``2 B_m + 2j`` it falls from +infinity to 0, trapping
exactly one crossing of any positive level.  Above the Hardy constant
the first root leaves the axis through the origin and reappears as a
real pair; each later root stays in its window, so ``count`` roots are
the first one and windows ``1 .. count-1``.  Every reported
configuration is certified afterwards by an argument-principle winding
count on a rectangle enclosing it.

One array solver finds all roots of a call together.  Its brackets are
these windows, and ``(0, 2 B_m)`` for the first axis root; their ends
are never evaluated, since the symbol is +infinity at a pole, 0 at a
zero and the Hardy constant at the origin.  Only the real pair's far end
is searched, by doubling.  Newton runs from each bracket's midpoint and
bisects when a step would leave the bracket, each step one vectorized
symbol-and-slope evaluation on the roots still moving.  Each root takes
the same steps as a search of its own, so the roots do not depend on how
many are requested.  That makes the certified result reusable:
:func:`find_roots` keeps the last 64 ``(params, mode)`` results and
answers a smaller count from the prefix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateRootError,
    IncompleteError,
    NoRootError,
    QuadratureError,
    ThresholdError,
    ValidationError,
)
from .symbol import _evaluate, mode_constants, theta, theta_derivative

__all__ = [
    "IndicialRoot",
    "find_roots",
    "residue_at",
    "certified_count",
]

ROOT_RESIDUAL_TOL = 1e-8
DEGENERATE_TOL = 1e-10
_DEGENERATE_FAR = 1e4  # |z| past which the degeneracy test scales with |z|
_NEWTON_TOL = 1e-12
_STEP_MAXIT = 100  # safeguarded Newton steps per root; about 10 are taken
_TRIES = 200  # doublings of the real pair's far end
_AXIS = 1j  # roots z = i sigma
_REAL = 1.0 + 0j  # the real pair z = +-tau


@dataclass(frozen=True)
class IndicialRoot:
    """One resolvent pole ``z = tau + i sigma`` with its residue.

    ``sigma >= 0`` is the decay rate contributed to the Green's series,
    ``tau >= 0`` the oscillation frequency, ``residue`` the residue of
    ``1/(Theta_m - kappa)`` at ``z``, and ``index`` the position in the
    sigma-sorted sequence.
    """

    sigma: float
    tau: float
    residue: complex
    index: int

    @property
    def z(self):
        """Pole location in the closed upper half-plane."""
        return complex(self.tau, self.sigma)


def _values(params, mode, along, x):
    """``Theta_m(along * x)``, exactly real on both axes (``along`` 1j or 1)."""
    return np.asarray(theta(params, mode, along * x)).real


def _values_and_slopes(params, mode, along, x):
    """:func:`_values` and the derivative of ``x -> Theta_m(along * x)``, from one call."""
    th, d = _evaluate(params, mode, along * x, slope=True)
    return th.real, (along * d).real


def _real_pair_end(params, mode, kappa):
    """Far end of the real pair's bracket, doubling from 1 until ``Theta_m > kappa``.

    The symbol grows along the real axis; :class:`NoRootError` after ``_TRIES`` misses.
    """
    x = 1.0
    for _ in range(_TRIES):
        if _values(params, mode, _REAL, x) > kappa:
            return x
        x *= 2.0
    raise NoRootError(f"Theta_m stays below kappa = {kappa} on the real axis up to {x / 2.0}")


def _solve(params, mode, kappa, along, lo, hi):
    """Roots of ``Theta_m(along * x) = kappa``, one per bracket ``(lo, hi)``, all at once.

    On the imaginary axis the symbol falls across each bracket, on the
    real axis it rises; the ends are never evaluated, as their signs are
    known.  Newton safeguarded by the bracket (*Numerical Recipes* §9.4,
    ``rtsafe``) starts from the midpoint: each step narrows the bracket
    by the sign of ``Theta - kappa`` and takes the Newton step from the
    same symbol call if it lands strictly inside, else bisects, until a
    zero residual, a step below ``_NEWTON_TOL max(1, |x|)`` (taken, but
    not past ``hi``, on the axis a zero that a tiny level rounds onto) or
    adjacent floats.  Every root makes a scalar search's decisions.
    """
    lo_above = along.real == 0.0  # Theta - kappa > 0 at the lo end on the imaginary axis
    x, top = 0.5 * (lo + hi), hi.copy()
    todo = np.arange(len(x))
    for _ in range(_STEP_MAXIT):
        if not todo.size:
            break
        xt = x[todo]
        r, d = _values_and_slopes(params, mode, along[todo], xt)
        r -= kappa
        same = (r > 0.0) == lo_above[todo]
        lt = lo[todo] = np.where(same, xt, lo[todo])
        ht = hi[todo] = np.where(same, hi[todo], xt)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = r / d
        nxt = xt - step
        small = np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(xt))
        newton = small | ((lt < nxt) & (nxt < ht))
        mid = 0.5 * (lt + ht)
        x[todo] = np.where(r == 0.0, xt, np.where(newton, nxt, mid))
        done = (r == 0.0) | small | (~newton & ((mid == lt) | (mid == ht)))
        todo = todo[~done]
    return np.minimum(x, top)


def _winding(params, mode, kappa, corners):
    """Winding number of Theta_m - kappa around a closed polygon.

    Counts zeros minus poles.  The boundary phase is tracked through
    adaptive sampling: midpoints are inserted until every step turns by
    less than 1.2 rad, which keeps the unwrapping unambiguous.
    """
    tt = np.linspace(0.0, 1.0, 64, endpoint=False)
    z = np.concatenate([a + (b - a) * tt for a, b in zip(corners, corners[1:] + corners[:1])])
    vals = np.asarray(theta(params, mode, z)) - kappa
    for _ in range(40):
        if np.any(np.abs(vals) < 1e-13):
            raise QuadratureError("certification contour passes through a root")
        steps = np.angle(np.roll(vals, -1) / vals)
        bad = np.abs(steps) > 1.2
        if not np.any(bad):
            break
        if z.size > 400_000:
            raise QuadratureError("contour refinement budget exhausted")
        idx = np.nonzero(bad)[0]
        mids = 0.5 * (z[idx] + np.roll(z, -1)[idx])
        mv = np.asarray(theta(params, mode, mids)) - kappa
        z = np.insert(z, idx + 1, mids)
        vals = np.insert(vals, idx + 1, mv)
    else:
        raise QuadratureError("contour phase tracking did not settle")
    total = float(np.sum(np.angle(np.roll(vals, -1) / vals))) / (2.0 * math.pi)
    nearest = round(total)
    if abs(total - nearest) > 0.05:
        raise QuadratureError(f"winding {total:.6f} is not close to an integer")
    return int(nearest)


def _pole_count(a, sigma_lo, sigma_hi):
    """Symbol poles 2 A_m + 2k, k >= 0, inside the sigma band."""
    k = 0
    while 2.0 * a + 2.0 * k < sigma_hi:
        k += 1
    return sum(1 for j in range(k) if 2.0 * a + 2.0 * j > sigma_lo)


def certified_count(params, mode, sigma_lo, sigma_hi, tau_max):
    """Argument-principle zero count in [-tau_max, tau_max] x [sigma_lo, sigma_hi].

    Returns the number of resolvent poles (zeros of ``Theta_m - kappa``)
    in the rectangle, each counted with multiplicity; the known symbol
    poles on the imaginary axis are added back to the winding number.
    The boundary must stay away from roots and symbol poles; :func:`find_roots`
    counts over the half-width ``4 (m + 10)`` or wider.
    """
    a, _ = mode_constants(params, mode)
    corners = [complex(-tau_max, sigma_lo), complex(tau_max, sigma_lo)]
    corners += [complex(tau_max, sigma_hi), complex(-tau_max, sigma_hi)]
    w = _winding(params, mode, params.kappa, corners)
    return w + _pole_count(a, sigma_lo, sigma_hi)


def find_roots(params, mode=0, count=12):
    """First ``count`` resolvent poles, sigma-sorted, certified.

    Stable levels (``kappa`` below the mode's Hardy constant) give a
    first root on the imaginary axis inside ``(0, 2 B_m)``; unstable
    levels give a real pair ``+-tau_0`` instead, reported once with
    ``sigma = 0``.  Later roots sit one per window regardless, and
    safeguarded Newton finds each inside its window.  At ``kappa = 0``
    the roots are the symbol zeros ``2 B_m + 2j`` exactly; a tiny
    positive level may round a root onto its zero.

    Raises :class:`ThresholdError` within ``1e-9`` of the threshold
    level (the first root degenerates to ``z = 0`` there) and
    :class:`IncompleteError` if the argument-principle count over the
    roots' rectangle disagrees with the roots located; the located list
    rides on the exception as ``.roots``.

    A large real pair is beyond the certification: ``tau_0`` grows like
    ``kappa^(1/(2 gamma))``, and from about ``tau_0 ~ 1e12`` the
    argument-principle contour raises :class:`QuadratureError` (it
    passes through a root, or its phase tracking does not settle), never
    returning a wrong root.  At mode 0 the limit lies between 15 and
    21.5 ``Theta_0(0)`` for ``(n, gamma) = (3, 0.05)`` and between 100
    and 1000 ``Theta_0(0)`` for ``(2, 0.1)``, while at ``(3, 0.5)`` even
    ``1e8 Theta_0(0)`` gives only ``tau_0 = 6.4e7``.  Past the far end's
    doubling cap ``2^199 = 8.0e59`` (at ``(3, 0.05)`` from ``kappa = 1e6``)
    :class:`NoRootError` is raised instead.

    Results are memoized on ``(params, mode)``: a call for at most as
    many roots as an earlier one returns a new list holding that call's
    first ``count`` roots.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    slot = _memo(params, mode)
    known = slot[0] if slot else ()
    if len(known) >= count:
        return list(known[:count])
    roots = _search(params, mode, count)
    slot[:] = [tuple(roots)]
    return roots


@functools.lru_cache(maxsize=64)
def _memo(params, mode):
    """Slot holding the last certified roots of (params, mode)."""
    return []


def _search(params, mode, count):
    kappa = params.kappa
    lam_m = float(_values(params, mode, _AXIS, 0.0))
    if abs(kappa - lam_m) <= 1e-9:
        raise ThresholdError(
            f"kappa = {kappa} is within 1e-9 of the mode threshold {lam_m}; "
            "the first root degenerates to z = 0"
        )
    a, b = mode_constants(params, mode)
    if kappa == 0.0:
        locations = [(2.0 * b + 2.0 * j, 0.0) for j in range(count)]
    else:
        # Window j from the pole 2 A_m + 2(j-1) to the zero 2 B_m + 2j, the first from 0.
        j = np.arange(count, dtype=float)
        lo = np.where(j > 0, 2.0 * a + 2.0 * (j - 1.0), 0.0)
        hi = 2.0 * b + 2.0 * j
        along = np.full(count, _AXIS)
        if kappa > lam_m:
            along[0], hi[0] = _REAL, _real_pair_end(params, mode, kappa)
        x = _solve(params, mode, kappa, along, lo, hi).tolist()
        locations = [(0.0, x[0]) if kappa > lam_m else (x[0], 0.0)]
        locations += [(sigma, 0.0) for sigma in x[1:]]

    roots = _assemble(params, mode, kappa, locations)
    _certify(params, mode, kappa > lam_m, a, b, roots)
    return roots


def _assemble(params, mode, kappa, locations):
    """Roots with residues, after checking each location's symbol residual.

    The bound is ``ROOT_RESIDUAL_TOL max(1, |z|^(2 gamma))``, as the
    round-off grows with ``Theta``, or ``2 |Theta'(z)| spacing(|z|)``, what
    one ulp of ``z`` moves ``Theta`` by next to a symbol pole, if larger.
    """
    located = [(sigma, 0.0 if abs(tau) < 1e-9 else tau) for sigma, tau in sorted(locations)]
    z = np.array([complex(tau, sigma) for sigma, tau in located])
    th, slopes = _evaluate(params, mode, z, slope=True)
    resid = np.abs(th - kappa)
    tol = ROOT_RESIDUAL_TOL * np.maximum(1.0, np.abs(z) ** (2.0 * params.gamma))
    tol = np.maximum(tol, 2.0 * np.abs(slopes) * np.spacing(np.abs(z)))
    for zj, rj, tj in zip(z, resid, tol):
        if rj > tj:
            raise NoRootError(f"candidate at z={complex(zj)} has symbol residual {rj:.3e}")
    return [
        IndicialRoot(sigma=sigma, tau=tau, residue=_residue(sigma, tau, complex(d)), index=j)
        for j, ((sigma, tau), d) in enumerate(zip(located, slopes))
    ]


def _certify(params, mode, unstable, a, b, roots):
    """One winding count over a rectangle enclosing every returned root.

    Its half-width is ``4 (m + 10)``, widened to ``1.5 max tau`` when an
    unstable real pair lies beyond it.
    """
    sig = [r.sigma for r in roots]
    top = max(sig) + (a - b)  # half a spectral gap past the last root
    if unstable:
        bottom = -(a - b)  # reach below the real pair, above the mirror poles
    else:
        bottom = 0.5 * min(s for s in sig if s > 0.0)
    expected = sum(1 if r.tau == 0.0 else 2 for r in roots)
    tau_max = max(4.0 * (mode + 10), 1.5 * max(r.tau for r in roots))
    got = certified_count(params, mode, bottom, top, tau_max)
    if got != expected:
        err = IncompleteError(
            f"argument principle counts {got} roots in the search band, located {expected}"
        )
        err.roots = roots
        raise err


def residue_at(params, mode, root):
    """Residue of 1/(Theta_m - kappa) at the root: 1/Theta_m'(z).

    Simple poles only; a derivative smaller than ``1e-10`` in magnitude
    is reported as :class:`DegenerateRootError`.  Past ``|z| = 1e4`` the
    bound is ``1e-10 * 1e4 / |z|``: there a simple root's derivative,
    about ``2 gamma kappa / z`` since ``Theta_m`` grows like
    ``|z|^(2 gamma)``, itself falls toward ``1e-10`` (``2.2e-11`` at the
    real root ``2.87e9`` of n = 3, gamma = 0.0159, mode 3).
    Conjugate symmetry forces the residue purely imaginary on the
    imaginary axis and purely real on the real axis, and the returned
    value satisfies that exactly.
    """
    d = complex(theta_derivative(params, mode, root.z))
    return _residue(root.sigma, root.tau, d)


def _residue(sigma, tau, d):
    """``1/d`` at the pole ``tau + i sigma``, with the symmetry made exact."""
    if abs(d) * max(1.0, abs(complex(tau, sigma)) / _DEGENERATE_FAR) < DEGENERATE_TOL:
        raise DegenerateRootError(
            f"|Theta'| = {abs(d):.3e} at z = {complex(tau, sigma)}; root is not simple"
        )
    r = 1.0 / d
    if tau == 0.0:
        return complex(0.0, r.imag)
    if sigma == 0.0:
        return complex(r.real, 0.0)
    return r

