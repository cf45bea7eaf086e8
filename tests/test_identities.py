"""Wronskian and Pohozaev identity verification."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from cylspec.errors import (
    DecayHypothesisError,
    GridMismatchError,
    ValidationError,
)
from cylspec.greens import (
    build_greens,
    component_solutions,
    solve_convolution,
    solve_ode_system,
)
from cylspec import identities
from cylspec.grid import GridFunction
from cylspec.identities import pohozaev_check, wronskian, wronskian_defect
from cylspec.profiles import bubble, cylinder_constant
from cylspec.symbol import CylinderParams

P03 = CylinderParams(n=3, gamma=0.5, kappa=0.3)
PI6 = math.pi / 6.0


def _grid(fun, step=2.0**-7, t_max=30.0):
    return GridFunction.from_callable(lambda t: fun(t) + 0j, -t_max, t_max, step)


def _random_source(rng, step):
    centers = rng.uniform(-3.0, 3.0, size=3)
    widths = rng.uniform(0.5, 2.0, size=3)
    amps = rng.uniform(-1.0, 1.0, size=3)

    def fun(t):
        return sum(
            a * np.exp(-0.5 * ((t - c) / w) ** 2)
            for a, c, w in zip(amps, centers, widths)
        )

    return _grid(fun, step=step)


def test_same_input_gives_zero():
    series = build_greens(P03, 0, truncation=8)
    h = _grid(lambda t: np.exp(-0.5 * t**2))
    w = solve_convolution(series, h)
    tr = wronskian(series, w, w, h, h)
    assert np.max(np.abs(tr.samples)) == 0.0


def test_antisymmetry_and_bilinearity():
    series = build_greens(P03, 0, truncation=8)
    h = _grid(lambda t: np.exp(-0.5 * (t - 1.0) ** 2))
    ht = _grid(lambda t: np.exp(-0.8 * (t + 0.5) ** 2) * np.cos(t))
    w, wt = solve_convolution(series, h), solve_convolution(series, ht)
    tr = wronskian(series, w, wt, h, ht)
    swapped = wronskian(series, wt, w, ht, h)
    assert np.array_equal(swapped.samples, -tr.samples)
    scaled = wronskian(
        series, w.with_samples(2.5 * w.samples), wt, h.with_samples(2.5 * h.samples), ht
    )
    scale = np.max(np.abs(tr.samples))
    assert np.max(np.abs(scaled.samples - 2.5 * tr.samples)) <= 1e-12 * scale


def test_derivative_identity_random_pairs():
    series = build_greens(P03, 0, truncation=12)
    rng = np.random.default_rng(7)
    for _ in range(20):
        h, ht = _random_source(rng, 2.0**-7), _random_source(rng, 2.0**-7)
        w, wt = solve_convolution(series, h), solve_convolution(series, ht)
        defect = wronskian_defect(series, w, wt, h, ht)
        drive = 2.0 * (
            ht.samples.real * w.samples.real - h.samples.real * wt.samples.real
        )
        tr = wronskian(series, w, wt, h, ht)
        scale = np.max(np.abs(drive)) + np.max(np.abs(tr.samples))
        assert np.max(np.abs(defect.samples.real[2:-2])) <= 2e-3 * scale


def test_derivative_identity_second_order():
    series = build_greens(P03, 0, truncation=12)
    rng = np.random.default_rng(19)
    for _ in range(3):
        sups = {}
        state = rng.bit_generator.state
        for step in (2.0**-7, 2.0**-8):
            rng.bit_generator.state = state
            h, ht = _random_source(rng, step), _random_source(rng, step)
            w, wt = solve_convolution(series, h), solve_convolution(series, ht)
            defect = wronskian_defect(series, w, wt, h, ht)
            sups[step] = np.max(np.abs(defect.samples.real[2:-2]))
        ratio = sups[2.0**-7] / sups[2.0**-8]
        assert 2.8 <= ratio <= 6.0


@pytest.mark.parametrize(
    "n, gamma, kappa, mode",
    [(4, 0.05, 0.1, 0), (2, 0.95, 0.001, 0), (2, 0.95, 0.001, 1), (3, 0.5, 0.3, 4), (5, 0.25, 0.2, 5)],
)
def test_edge_wronskian_defect_is_second_order(n, gamma, kappa, mode):
    # Edge regions: gamma near 0 and 1, n = 2 with kappa just below
    # Theta_0(0) = 0.0025, and modes 4 and 5.  The defect's sup relative
    # to its drive 2(h~ w - h w~) falls like step^2: by 4 per halving.
    series = build_greens(CylinderParams(n=n, gamma=gamma, kappa=kappa), mode, truncation=12)
    ratios = []
    for step in (2.0**-5, 2.0**-6, 2.0**-7):
        h = _grid(lambda t: np.exp(-0.5 * (t - 1.0) ** 2), step=step)
        ht = _grid(lambda t: np.exp(-0.8 * (t + 0.5) ** 2) * np.cos(t), step=step)
        w, wt = solve_ode_system(series, h), solve_ode_system(series, ht)
        defect = wronskian_defect(series, w, wt, h, ht).samples
        drive = 2.0 * (ht.samples * w.samples - h.samples * wt.samples)
        ratios.append(np.max(np.abs(defect)) / np.max(np.abs(drive)))
    for coarse, fine in zip(ratios, ratios[1:]):
        assert 3.8 <= coarse / fine <= 4.2


def test_shared_potential_constancy():
    # Two near-degenerate parity eigenstates of one double-well potential
    # solve the same linear problem, so their Wronskian is flat.  The
    # comparison scale is the size of the summed expression before any
    # cancellation; the flatness of the sum is the identity's content.
    series = build_greens(P03, 0, truncation=20)
    step = 2.0**-7
    grid = _grid(lambda t: np.zeros_like(t), step=step)
    t = grid.t
    v0 = np.exp(-((t - 10.0) ** 2)) + np.exp(-((t + 10.0) ** 2))
    lag = (np.arange(2 * t.size - 1) - (t.size - 1)) * step
    kernel = series(lag)

    def apply_g(u):
        return fftconvolve(u, kernel, mode="full")[t.size - 1 : 2 * t.size - 1] * step

    def eigenstate(seed, parity):
        u = seed / np.max(np.abs(seed))
        mu = 1.0
        for _ in range(2000):
            gu = apply_g(v0 * u)
            gu = 0.5 * (gu + parity * gu[::-1])
            mu = float(gu @ u / (u @ u))
            nxt = gu / np.max(np.abs(gu))
            if np.max(np.abs(nxt - u)) <= 1e-12:
                u = nxt
                break
            u = nxt
        return u, mu

    u_even, mu_even = eigenstate(v0, +1.0)
    odd_seed = np.exp(-((t - 10.0) ** 2)) - np.exp(-((t + 10.0) ** 2))
    u_odd, _ = eigenstate(odd_seed, -1.0)

    v_star = v0 / mu_even
    h = grid.with_samples(v_star * u_even + 0j)
    ht = grid.with_samples(v_star * u_odd + 0j)
    w, wt = solve_convolution(series, h), solve_convolution(series, ht)
    tr = wronskian(series, w, wt, h, ht).samples.real

    comps = component_solutions(series, h)
    comps_t = component_solutions(series, ht)
    size = np.zeros_like(t)
    for root, c, cj, ctj in zip(series.roots, series.coefficients, comps, comps_t):
        weight = abs(c) / abs(complex(root.sigma, root.tau))
        dt = np.gradient(ctj, step)
        da = np.gradient(cj, step)
        size += weight * (np.abs(cj) * np.abs(dt) + np.abs(da) * np.abs(ctj))
    scale = float(np.max(size))
    total_variation = float(np.sum(np.abs(np.diff(tr))))
    assert total_variation <= 1e-5 * scale
    assert float(np.max(np.abs(tr))) <= 1e-4 * scale


def test_defect_reuses_the_wronskian(cold, monkeypatch):
    # The defect after the Wronskian on the same arguments reassembles no
    # component; the memo keys each grid by identity and holds one entry.
    series = build_greens(P03, 0, truncation=8)
    h = _grid(lambda t: np.exp(-0.5 * (t - 1.0) ** 2))
    ht = _grid(lambda t: np.exp(-0.8 * (t + 0.5) ** 2) * np.cos(t))
    w, wt = solve_convolution(series, h), solve_convolution(series, ht)
    calls = []
    components = identities.component_solutions

    def counted(*args):
        calls.append(args)
        return components(*args)

    monkeypatch.setattr(identities, "component_solutions", counted)
    tr = wronskian(series, w, wt, h, ht)
    defect = wronskian_defect(series, w, wt, h, ht)
    assert len(calls) == 2
    assert wronskian(series, w, wt, h, ht) is tr
    with pytest.raises(ValueError):
        tr.samples[0] = 1.0
    copy = w.with_samples(w.samples)
    assert np.array_equal(wronskian(series, copy, wt, h, ht).samples, tr.samples)
    assert len(calls) == 4
    wronskian.cache_clear()
    assert np.array_equal(wronskian_defect(series, w, wt, h, ht).samples, defect.samples)
    assert wronskian.cache_info().currsize == 1


def test_grid_and_consistency_guards():
    series = build_greens(P03, 0, truncation=8)
    h = _grid(lambda t: np.exp(-0.5 * t**2))
    w = solve_convolution(series, h)
    other = _grid(lambda t: np.exp(-0.5 * t**2), t_max=20.0)
    with pytest.raises(GridMismatchError):
        wronskian(series, w, w, h, other)
    wrong = w.with_samples(2.0 * w.samples)
    with pytest.raises(ValidationError):
        wronskian(series, wrong, w, h, h)
    unstable = build_greens(CylinderParams(n=3, gamma=0.5, kappa=0.8), 0, truncation=8)
    hu = _grid(lambda t: np.exp(-0.5 * t**2))
    wu = solve_convolution(unstable, hu)
    with pytest.raises(ValidationError):
        wronskian(unstable, wu, wu, hu, hu)


def test_pohozaev_zero_solution():
    params = CylinderParams(n=3, gamma=0.5)
    report = pohozaev_check(params, _grid(lambda t: np.zeros_like(t)))
    assert report.grad_sum == report.mass_sum == report.rhs_integral == 0.0
    assert report.relative_spread == 0.0


def test_pohozaev_bubble_closed_form():
    params = CylinderParams(n=3, gamma=0.5)
    report = pohozaev_check(params, _grid(lambda t: 1.0 / np.cosh(t)), truncation=12)
    triple = report.scaled_triple(params)
    for value in triple:
        assert abs(value - PI6) < 5e-4
    assert report.relative_spread <= 1e-3
    assert abs(report.rhs_integral - math.pi / 2.0) < 1e-12


@pytest.mark.parametrize("n, gamma", [(4, 0.75), (5, 0.25), (6, 0.9)])
def test_pohozaev_exact_bubble(n, gamma):
    # The exact solution of Theta w = w^p.  (5, 1/4) and (6, 0.9) decay
    # at rates 2.25 and 2.1, fast enough to reach round-off well inside
    # the default window.
    params = CylinderParams(n=n, gamma=gamma)
    scale = cylinder_constant(params)
    report = pohozaev_check(params, _grid(lambda t: scale * bubble(params, t)))
    assert report.relative_spread <= 1e-3


def test_pohozaev_second_order_in_step():
    params = CylinderParams(n=3, gamma=0.5)
    spreads = {}
    for step in (2.0**-7, 2.0**-8):
        report = pohozaev_check(
            params, _grid(lambda t: 1.0 / np.cosh(t), step=step), truncation=12
        )
        spreads[step] = report.relative_spread
    ratio = spreads[2.0**-7] / spreads[2.0**-8]
    assert 2.5 <= ratio <= 6.0


def test_pohozaev_guards():
    subcritical = CylinderParams(n=3, gamma=0.5, p=1.8)
    with pytest.raises(ValidationError):
        pohozaev_check(subcritical, _grid(lambda t: 1.0 / np.cosh(t)))
    critical = CylinderParams(n=3, gamma=0.5)
    slow = _grid(lambda t: np.exp(-0.55 * np.sqrt(t**2 + 1.0)))
    with pytest.raises(DecayHypothesisError):
        pohozaev_check(critical, slow)
