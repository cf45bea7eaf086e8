"""Summed Wronskian and series Pohozaev identity checks.

Both identities live on the component decomposition of a solved
profile: each root j of the Green's series contributes a
one-dimensional solution w_j, and the identities weight these by the
series' own real coefficients c_j and decay rates sigma_j.  The Wronskian is
the weighted sum of the pairwise 2x2 determinants; the Pohozaev check
compares three weighted sums that the critical equation forces to agree
after scaling, with the roots that the truncation drops restored by
the series' closed-form moments (:meth:`GreensSeries.dropped_moments`).
Derivatives are centered differences (``np.gradient``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DecayHypothesisError, ValidationError
from .greens import GreensSeries, _sweep, build_greens, component_solutions
from .grid import GridFunction, tail_rate, trapezoid
from .symbol import CylinderParams

__all__ = ["PohozaevReport", "pohozaev_check", "wronskian", "wronskian_defect"]

POHOZAEV_TRUNCATION = 12

# Solution tails must carry at least this fraction of the first decay
# rate before a truncated check is meaningful.
_TAIL_RATE_FRACTION = 0.9
_CONSISTENCY_TOL = 1e-6


def _check_consistency(series, w, h, label):
    h.require_real()
    comps = component_solutions(series, h)
    acc = sum(c * comp for c, comp in zip(series.coefficients, comps))
    scale = max(float(np.max(np.abs(w.samples))), 1e-300)
    if float(np.max(np.abs(acc - w.samples))) > _CONSISTENCY_TOL * scale:
        raise ValidationError(
            f"{label} does not match the series solution of its source term"
        )
    return comps


@lru_cache(maxsize=1)
def wronskian(
    series: GreensSeries,
    w: GridFunction,
    w_tilde: GridFunction,
    h: GridFunction,
    h_tilde: GridFunction,
) -> GridFunction:
    """Coefficient-weighted sum of componentwise Wronskians.

    Rebuilds the mode components of both profiles from their source
    terms, forms w_j * w~_j' - w_j' * w~_j with centered differences,
    and sums with weights c_j / sigma_j.  The inputs w and w_tilde must
    be the series solutions of the real sources h and h_tilde on the
    same grid.  The last result is memoized on ``(series, w, w_tilde, h,
    h_tilde)``, the series by value and each grid by identity, so
    :func:`wronskian_defect` after ``wronskian`` on the same arguments
    reuses it; the result is a read-only :class:`GridFunction`.
    """
    w.require_same_grid(w_tilde)
    w.require_same_grid(h)
    w.require_same_grid(h_tilde)
    weights = np.array(series.coefficients) / series.decay_exponents
    comps = _check_consistency(series, w, h, "w")
    comps_t = _check_consistency(series, w_tilde, h_tilde, "w_tilde")
    step = w.step
    acc = np.zeros(w.n_points)
    for weight, a, b in zip(weights, comps, comps_t):
        acc += weight * (a * np.gradient(b, step) - np.gradient(a, step) * b)
    return w.with_samples(acc)


def wronskian_defect(
    series: GreensSeries,
    w: GridFunction,
    w_tilde: GridFunction,
    h: GridFunction,
    h_tilde: GridFunction,
) -> GridFunction:
    """Pointwise defect dW/dt + 2(h_tilde w - h w_tilde); O(step^2) small."""
    tr = wronskian(series, w, w_tilde, h, h_tilde)
    drive = 2.0 * (h_tilde.samples * w.samples - h.samples * w_tilde.samples)
    return w.with_samples(np.gradient(tr.samples, w.step) + drive)


@dataclass(frozen=True)
class PohozaevReport:
    """Three scalings of the critical identity and their disagreement."""

    grad_sum: float
    mass_sum: float
    rhs_integral: float
    relative_spread: float

    def scaled_triple(self, params: CylinderParams) -> tuple:
        return (
            self.grad_sum / (2.0 * params.gamma),
            self.mass_sum / (2.0 * (params.n - params.gamma)),
            self.rhs_integral / params.n,
        )


def pohozaev_check(
    params: CylinderParams,
    solution: GridFunction,
    truncation: int = POHOZAEV_TRUNCATION,
) -> PohozaevReport:
    """Verify the three-way critical identity on a solved profile.

    Decomposes h = solution^p into the components of the mode-0 series,
    forms the weighted gradient and mass sums, and compares them with
    the integral of the critical power.  The series keeps `truncation` +
    1 roots; the dropped ones act on h as the local operator ``2 s1 h +
    2 s3 h'' + 2 s5 h''''``, with the moments ``(s1, s3, s5)`` of
    :meth:`GreensSeries.dropped_moments`.  All three integrals share one
    trapezoid rule so the spread isolates identity error rather than
    quadrature bias.
    """
    if not params.is_critical:
        raise ValidationError("the identity holds at the critical exponent only")
    solution.require_real()
    w = solution.samples
    if float(np.max(np.abs(w))) == 0.0:
        return PohozaevReport(0.0, 0.0, 0.0, 0.0)
    solution.require_decay(1e-6)

    series = build_greens(params, mode=0, truncation=truncation)
    rate = tail_rate(w, solution.t)
    floor = _TAIL_RATE_FRACTION * series.roots[0].sigma
    if rate < floor:
        raise DecayHypothesisError(
            f"measured tail rate {rate:.4f} below the required {floor:.4f}"
        )
    s1, s3, s5 = series.dropped_moments()

    p = params.p
    step = solution.step
    h = solution.with_samples(np.sign(w) * np.abs(w) ** p)
    grad_sum = mass_sum = 0.0
    comps = _sweep(series, h)  # h is new to this call: a memo entry could never be hit
    for c, sigma, vals in zip(series.coefficients, series.decay_exponents, comps):
        dvals = np.gradient(vals, step)
        grad_sum += (c / sigma) * trapezoid(dvals * dvals, step)
        mass_sum += (c * sigma) * trapezoid(vals * vals, step)

    hs = h.samples
    dh = np.gradient(hs, step)
    ddh = np.gradient(dh, step)
    norm_h = trapezoid(hs * hs, step)
    norm_dh = trapezoid(dh * dh, step)
    norm_ddh = trapezoid(ddh * ddh, step)

    grad = grad_sum + 4.0 * norm_dh * s3 - 8.0 * norm_ddh * s5
    mass = mass_sum + 4.0 * norm_h * s1 - 8.0 * norm_dh * s3
    rhs = float(trapezoid(np.abs(w) ** (p + 1.0), step))

    report = PohozaevReport(float(grad), float(mass), rhs, relative_spread=0.0)
    triple = report.scaled_triple(params)
    mean = sum(triple) / 3.0
    spread = 0.0 if mean == 0.0 else (max(triple) - min(triple)) / abs(mean)
    return replace(report, relative_spread=float(spread))
