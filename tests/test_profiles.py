"""Bubble profile, Riesz kernel, and tail-exponent fitting."""

import math

import numpy as np
import pytest

from cylspec import profiles
from cylspec.errors import DomainError, NoFitError, ValidationError, WindowError
from cylspec.greens import build_greens, solve_convolution
from cylspec.grid import GridFunction, multiply
from cylspec.indicial import IndicialRoot, find_roots
from cylspec.profiles import (
    AsymptoticFit,
    bubble,
    bubble_amplitude,
    bubble_residual,
    cylinder_constant,
    frobenius_fit,
    riesz_kernel_theta,
)
from cylspec.symbol import CylinderParams

# Frozen 40-digit evaluations of (Lambda Gamma(n/2-g)/Gamma(n/2+g))^{-(n-2g)/(4g)}
AMPLITUDE_TABLE = {
    (3, 0.5): 1.5707963267948966,
    (4, 0.75): 1.5054814099866045,
    (5, 0.9): 1.4957944472457616,
    (2, 0.25): 1.7066696409834017,
}
BUBBLE_13 = {
    (3, 0.5): 0.79698867795712118,
    (4, 0.75): 0.64467486892549715,
    (5, 0.9): 0.50513045834420898,
    (2, 0.25): 1.0260030911796549,
}


def _bubble_grid(params, t_max, step=2.0**-7):
    return GridFunction.from_callable(
        lambda t: bubble(params, t) + 0j, -t_max, t_max, step
    )


def test_amplitude_table_and_positivity():
    for (n, g), want in AMPLITUDE_TABLE.items():
        c = bubble_amplitude(CylinderParams(n=n, gamma=g))
        assert abs(c - want) < 1e-13
        assert c > 1.0
    assert abs(bubble_amplitude(CylinderParams(n=3, gamma=0.5)) - math.pi / 2) < 5e-15


def test_bubble_values_and_shape():
    for (n, g), want in BUBBLE_13.items():
        params = CylinderParams(n=n, gamma=g)
        assert abs(bubble(params, 1.3) - want) < 1e-13
        assert bubble(params, 0.0) == bubble_amplitude(params)
        t = np.linspace(0.1, 20.0, 40)
        assert np.array_equal(bubble(params, t), bubble(params, -t))
        # tail log-slope
        slope = math.log(bubble(params, 18.0) / bubble(params, 19.0))
        assert abs(slope - 0.5 * (n - 2 * g)) < 1e-8
    # no overflow far out
    assert bubble(CylinderParams(n=3, gamma=0.5), 1e4) == 0.0


def test_bubble_solves_critical_equation():
    for n, g in [(3, 0.5), (4, 0.75)]:
        params = CylinderParams(n=n, gamma=g)
        assert bubble_residual(params, _bubble_grid(params, 30.0)) <= 1e-6


@pytest.mark.parametrize("step", [2.0**-7, 2.0**-8])
@pytest.mark.parametrize("n, g", [(3, 0.5), (4, 0.75), (5, 0.25), (2, 0.3)])
def test_bubble_residual_pads_to_a_fast_length(monkeypatch, n, g, step):
    # The tail-padded product runs at a 5-smooth length of at least 3n
    # points, on 7681 and 15361 points alike, and the bubble solves the
    # equation to round-off there.
    sizes = []

    def spy(half, v):
        sizes.append(v.size)
        return multiply(half, v)

    monkeypatch.setattr(profiles, "multiply", spy)
    params = CylinderParams(n=n, gamma=g)
    grid = _bubble_grid(params, 30.0, step)
    assert bubble_residual(params, grid) <= 1e-11
    (m,) = sizes
    assert m >= 3 * grid.n_points
    for factor in (2, 3, 5):
        while m % factor == 0:
            m //= factor
    assert m == 1


def test_tail_correction_carries_narrow_window():
    params = CylinderParams(n=3, gamma=0.5)
    assert bubble_residual(params, _bubble_grid(params, 12.0)) <= 1e-6
    with pytest.raises(WindowError):
        bubble_residual(params, _bubble_grid(params, 8.0))


def test_wrong_scale_breaks_identity():
    params = CylinderParams(n=3, gamma=0.5)
    grid = _bubble_grid(params, 30.0)
    scaled = grid.with_samples(1.3 * grid.samples)
    assert bubble_residual(params, scaled) > 0.1


def test_constant_profile():
    params = CylinderParams(n=3, gamma=0.5)
    ones = GridFunction.from_callable(
        lambda t: np.ones_like(t) + 0j, -20.0, 20.0, 2.0**-5
    )
    assert bubble_residual(params, ones) <= 1e-12
    zero = GridFunction.from_callable(
        lambda t: np.zeros_like(t) + 0j, -20.0, 20.0, 2.0**-5
    )
    assert bubble_residual(params, zero) == 0.0


def test_cylinder_constant_closed_form():
    assert (
        abs(
            cylinder_constant(CylinderParams(n=3, gamma=0.5, kappa=0.3))
            - 0.33661977236758134
        )
        < 1e-13
    )
    assert (
        abs(
            cylinder_constant(CylinderParams(n=4, gamma=0.75, kappa=0.5))
            - 0.64064124110679499
        )
        < 1e-13
    )
    # fixed-point algebra: (Lambda - kappa) c = c^p
    p = CylinderParams(n=5, gamma=0.9, kappa=1.1)
    c = cylinder_constant(p)
    assert abs((p.lam - p.kappa) * c - c**p.p) < 1e-14
    with pytest.raises(DomainError):
        cylinder_constant(CylinderParams(n=3, gamma=0.5, kappa=5.0))


def test_riesz_kernel_closed_form():
    params = CylinderParams(n=3, gamma=0.5)
    assert riesz_kernel_theta(params, 0.0) == 1.0
    for z in (0.3, 0.7):
        want = math.atanh(z) / z
        assert abs(riesz_kernel_theta(params, z) - want) < 1e-13
    got = riesz_kernel_theta(CylinderParams(n=4, gamma=0.6), 0.5)
    assert abs(got - 1.0818553422918196) < 1e-13
    zs = np.linspace(0.0, 0.9, 60)
    vals = riesz_kernel_theta(params, zs)
    assert np.all(np.diff(vals) > 0.0)
    for zi, value in zip(zs, vals):
        assert riesz_kernel_theta(params, float(zi)) == value
    with pytest.raises(DomainError):
        riesz_kernel_theta(params, 1.0)
    with pytest.raises(DomainError):
        riesz_kernel_theta(params, -0.2)


def test_riesz_taylor_matches_residue_ratios():
    # The kernel's Taylor coefficients in z^2 equal the kappa=0 series
    # coefficient ratios coming out of the residue computation.
    for n, g in [(3, 0.5), (4, 0.6)]:
        params = CylinderParams(n=n, gamma=g)
        roots = find_roots(params, mode=0, count=4)
        coeffs = [-r.residue.imag for r in roots]
        ratios = [c / coeffs[0] for c in coeffs]
        x = np.linspace(0.0, 0.1, 40)
        vals = riesz_kernel_theta(params, np.sqrt(x))
        poly = np.polynomial.Polynomial.fit(x, vals, deg=8).convert().coef
        for k in range(4):
            assert abs(poly[k] / poly[0] - ratios[k]) < 1e-6


def _planted(fun, t_min=0.0, t_max=16.0, step=2.0**-7):
    return GridFunction.from_callable(lambda t: fun(t) + 0j, t_min, t_max, step)


def test_fit_two_term_exponential():
    w = _planted(lambda t: 2.0 * np.exp(-t) + 0.3 * np.exp(-3.0 * t))
    fit = frobenius_fit(w, window=(8.0, 15.0))
    assert abs(fit.sigma - 1.0) < 1e-3
    assert fit.tau == 0.0
    assert abs(fit.amplitude_cos - 2.0) < 1e-2
    assert fit.residual < 1e-6
    # candidate mode picks the slow root over decoys
    decoys = [
        IndicialRoot(sigma=1.0, tau=0.0, residue=0j, index=0),
        IndicialRoot(sigma=3.0, tau=0.0, residue=0j, index=1),
        IndicialRoot(sigma=0.4, tau=1.0, residue=0j, index=2),
    ]
    cfit = frobenius_fit(w, window=(8.0, 15.0), candidate_roots=decoys)
    assert cfit.sigma == 1.0 and cfit.tau == 0.0
    assert abs(cfit.amplitude_cos - 2.0) < 1e-2


def test_fit_oscillatory():
    w = _planted(lambda t: np.exp(-0.5 * t) * np.cos(2.0 * t))
    fit = frobenius_fit(w, window=(2.0, 12.0))
    assert abs(fit.sigma - 0.5) < 1e-3
    assert abs(fit.tau - 2.0) < 1e-3
    assert abs(fit.amplitude_cos - 1.0) < 1e-3
    assert abs(fit.amplitude_sin) < 1e-3


def test_default_window_follows_the_envelope():
    # The tail of criterion 12's wave enters the default window where its
    # envelope falls below 1e-3 of the peak for good, not at its first
    # zero crossing below that level (t = 1.875, envelope 0.18).
    wave = _planted(lambda t: np.exp(-0.9 * np.abs(t)) * np.cos(2.3 * np.abs(t) + 0.4), -30.0, 30.0)
    fit = frobenius_fit(wave)
    assert 7.0 < fit.window[0] < 7.2
    assert fit.window[1] == 30.0
    assert np.max(np.abs(wave.samples[wave.t >= fit.window[0]])) < 1e-3
    assert abs(fit.sigma - 0.9) < 1e-9 and abs(fit.tau - 2.3) < 1e-9


def test_fit_guards():
    zero = _planted(lambda t: np.zeros_like(t))
    with pytest.raises(NoFitError):
        frobenius_fit(zero, window=(8.0, 15.0))
    with pytest.raises(NoFitError):
        frobenius_fit(zero)
    noise = _planted(lambda t: np.cos(17.0 * t))
    with pytest.raises(NoFitError):
        frobenius_fit(noise, window=(1.0, 2.0), candidate_roots=[
            IndicialRoot(sigma=1.0, tau=0.0, residue=0j, index=0)
        ])
    w = _planted(lambda t: np.exp(-t))
    with pytest.raises(ValidationError):
        frobenius_fit(w, window=(10.0, 30.0))
    with pytest.raises(ValidationError):
        frobenius_fit(w, window=(5.0, 5.01))
    # no decaying term for the pencil to find
    with pytest.raises(NoFitError):
        frobenius_fit(_planted(lambda t: np.exp(0.2 * t)), window=(1.0, 5.0))
    # the default window needs a tail that falls below 1e-3 of the peak
    with pytest.raises(WindowError):
        frobenius_fit(_planted(lambda t: np.exp(-0.1 * t)))


def test_fit_scale_equivariance():
    w = _planted(lambda t: 2.0 * np.exp(-t) + 0.3 * np.exp(-3.0 * t))
    big = w.with_samples(250.0 * w.samples)
    cands = [IndicialRoot(sigma=1.0, tau=0.0, residue=0j, index=0)]
    a = frobenius_fit(w, window=(8.0, 15.0), candidate_roots=cands)
    b = frobenius_fit(big, window=(8.0, 15.0), candidate_roots=cands)
    assert a.sigma == b.sigma and a.tau == b.tau
    assert abs(b.amplitude_cos / a.amplitude_cos - 250.0) < 1e-9
    fa = frobenius_fit(w, window=(8.0, 15.0))
    fb = frobenius_fit(big, window=(8.0, 15.0))
    assert abs(fa.sigma - fb.sigma) < 1e-6 and abs(fa.tau - fb.tau) < 1e-6


def test_fit_recovers_leading_root_of_solved_profile():
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    series = build_greens(params, mode=0, truncation=12)
    h = GridFunction.from_callable(
        lambda t: np.exp(-0.5 * t**2) + 0j, -30.0, 30.0, 2.0**-7
    )
    w = solve_convolution(series, h)
    free = frobenius_fit(w, window=(6.0, 12.0))
    assert abs(free.sigma - series.roots[0].sigma) < 1e-3
    assert free.tau == 0.0
    picked = frobenius_fit(w, window=(6.0, 12.0), candidate_roots=series.roots[:3])
    assert picked.sigma == series.roots[0].sigma
    assert picked.residual < 1e-4
    # default window lands in the decayed tail and still fits
    auto = frobenius_fit(w)
    assert isinstance(auto, AsymptoticFit)
    assert abs(auto.sigma - series.roots[0].sigma) < 0.05
