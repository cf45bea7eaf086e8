"""Summed Wronskian and series Pohozaev identity checks.

Both identities live on the component decomposition of a solved
profile: each mode j contributes a one-dimensional solution w_j, and
the identities weight these by the series coefficients.  The Wronskian
is the coefficient-weighted sum of the pairwise 2x2 determinants; the
Pohozaev check compares three weighted sums that the critical equation
forces to agree after scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecayHypothesisError, ValidationError
from .greens import GreensSeries, build_greens, component_solutions
from .grid import GridFunction, tail_rate, trapezoid
from .symbol import CylinderParams, theta

__all__ = ["PohozaevReport", "pohozaev_check", "wronskian", "wronskian_defect"]

POHOZAEV_TRUNCATION = 12

# Solution tails must carry at least this fraction of the first decay
# rate before a truncated check is meaningful.
_TAIL_RATE_FRACTION = 0.9
_CONSISTENCY_TOL = 1e-6


def _centered_derivative(samples, step):
    out = np.empty_like(samples)
    out[1:-1] = (samples[2:] - samples[:-2]) / (2.0 * step)
    out[0] = (samples[1] - samples[0]) / step
    out[-1] = (samples[-1] - samples[-2]) / step
    return out


def _gammas_lambdas(series):
    gammas, lambdas = [], []
    for root, (c, cp) in zip(series.roots, series.coefficients):
        if root.sigma == 0.0:
            raise ValidationError(
                "identities require decaying components; the series has a "
                "purely oscillatory mode"
            )
        gammas.append(complex(c, cp))
        lambdas.append(complex(root.sigma, root.tau))
    return gammas, lambdas


def _check_consistency(series, w, h, label):
    comps = component_solutions(series, h)
    gammas, _ = _gammas_lambdas(series)
    acc = sum(g * comp.samples for g, comp in zip(gammas, comps))
    scale = max(float(np.max(np.abs(w.samples))), 1e-300)
    if float(np.max(np.abs(acc.real - w.samples.real))) > _CONSISTENCY_TOL * scale:
        raise ValidationError(
            f"{label} does not match the series solution of its source term"
        )
    return comps


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
    and sums with weights gamma_j / lambda_j, taking the real part at
    the end.  The inputs w and w_tilde must be the series solutions of
    h and h_tilde on the same grid.
    """
    w.require_same_grid(w_tilde)
    w.require_same_grid(h)
    w.require_same_grid(h_tilde)
    comps = _check_consistency(series, w, h, "w")
    comps_t = _check_consistency(series, w_tilde, h_tilde, "w_tilde")
    gammas, lambdas = _gammas_lambdas(series)
    step = w.step
    acc = np.zeros(w.n_points, dtype=np.complex128)
    for g, lam, cj, ctj in zip(gammas, lambdas, comps, comps_t):
        a, b = cj.samples, ctj.samples
        acc += (g / lam) * (
            a * _centered_derivative(b, step) - _centered_derivative(a, step) * b
        )
    return w.with_samples(acc.real + 0j)


def wronskian_defect(
    series: GreensSeries,
    w: GridFunction,
    w_tilde: GridFunction,
    h: GridFunction,
    h_tilde: GridFunction,
) -> GridFunction:
    """Pointwise defect dW/dt + 2(h_tilde w - h w_tilde); O(step^2) small."""
    tr = wronskian(series, w, w_tilde, h, h_tilde)
    drive = 2.0 * (
        h_tilde.samples.real * w.samples.real - h.samples.real * w_tilde.samples.real
    )
    defect = _centered_derivative(tr.samples.real, w.step) + drive
    return w.with_samples(defect + 0j)


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


def _axis_inverse_derivatives(params):
    """Even derivatives of 1/(symbol - kappa) at frequency zero.

    These encode the moments of the full kernel, so the differences
    against the truncated coefficient sums are exactly the dropped
    tails.  The reciprocal symbol has no real-frequency poles in the
    stable range, so plain central stencils with Richardson steps
    suffice.
    """

    def q(s):
        return 1.0 / (complex(theta(params, 0, complex(s, 0.0))).real - params.kappa)

    q0 = q(0.0)
    h = 0.08

    def second(hh):
        return (q(hh) - 2.0 * q0 + q(-hh)) / hh**2

    def fourth(hh):
        return (q(2 * hh) - 4 * q(hh) + 6 * q0 - 4 * q(-hh) + q(-2 * hh)) / hh**4

    def richardson(stencil):
        a1, a2, a3 = stencil(h), stencil(h / 2), stencil(h / 4)
        r1, r2 = (4 * a2 - a1) / 3, (4 * a3 - a2) / 3
        return (16 * r2 - r1) / 15

    return q0, richardson(second), richardson(fourth)


def pohozaev_check(
    params: CylinderParams,
    solution: GridFunction,
    truncation: int = POHOZAEV_TRUNCATION,
) -> PohozaevReport:
    """Verify the three-way critical identity on a solved profile.

    Decomposes h = solution^p into mode components, forms the weighted
    gradient and mass sums, and compares them with the integral of the
    critical power.  Sums are truncated at `truncation` modes; the
    dropped tail is restored through the small-kernel expansion of the
    high modes, whose coefficient sums come from derivatives of the
    reciprocal symbol.  All three integrals share one trapezoid rule so
    the spread isolates identity error rather than quadrature bias.
    """
    if not params.is_critical:
        raise ValidationError("the identity holds at the critical exponent only")
    w = solution.samples.real
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
    gammas, lambdas = _gammas_lambdas(series)

    p = params.p
    step = solution.step
    h = solution.with_samples(np.sign(w) * np.abs(w) ** p + 0j)
    comps = component_solutions(series, h)

    grad_sum = 0.0 + 0.0j
    mass_sum = 0.0 + 0.0j
    part1 = part3 = part5 = 0.0
    for g, lam, comp in zip(gammas, lambdas, comps):
        vals = comp.samples
        dvals = _centered_derivative(vals, step)
        grad_sum += (g / lam) * trapezoid(dvals * dvals, step)
        mass_sum += (g * lam) * trapezoid(vals * vals, step)
        part1 += (g / lam).real
        part3 += (g / lam**3).real
        part5 += (g / lam**5).real

    q0, q2, q4 = _axis_inverse_derivatives(params)
    s1 = 0.5 * q0 - part1
    s3 = -0.25 * q2 - part3
    s5 = q4 / 48.0 - part5

    hs = h.samples.real
    dh = _centered_derivative(hs, step)
    ddh = _centered_derivative(dh, step)
    norm_h = trapezoid(hs * hs, step)
    norm_dh = trapezoid(dh * dh, step)
    norm_ddh = trapezoid(ddh * ddh, step)

    grad = grad_sum.real + 4.0 * norm_dh * s3 - 8.0 * norm_ddh * s5
    mass = mass_sum.real + 4.0 * norm_h * s1 - 8.0 * norm_dh * s3
    rhs = float(trapezoid(np.abs(w) ** (p + 1.0), step))

    triple = (
        grad / (2.0 * params.gamma),
        mass / (2.0 * (params.n - params.gamma)),
        rhs / params.n,
    )
    mean = sum(triple) / 3.0
    spread = 0.0 if mean == 0.0 else (max(triple) - min(triple)) / abs(mean)
    return PohozaevReport(
        grad_sum=float(grad),
        mass_sum=float(mass),
        rhs_integral=rhs,
        relative_spread=float(spread),
    )
