"""Acceptance criteria, one test per criterion.

Running ``pytest -v tests/test_acceptance.py`` prints exactly one
PASSED/FAILED line per criterion.  Each test prints its measured
numbers so a failure carries the evidence with it.
"""

import math

import numpy as np
from scipy.signal import fftconvolve

from cylspec.greens import (
    build_greens,
    component_solutions,
    greens_quadrature_oracle,
    solve_convolution,
    solve_ode_system,
)
from cylspec.grid import GridFunction
from cylspec.identities import pohozaev_check, wronskian, wronskian_defect
from cylspec.indicial import find_roots
from cylspec.nonlinear import solve_profile
from cylspec.profiles import (
    bubble,
    bubble_amplitude,
    bubble_residual,
    frobenius_fit,
)
from cylspec.symbol import (
    CylinderParams,
    constant_A,
    hardy_constant,
    kernel_K0,
    solve_p1,
    theta,
)

P35 = CylinderParams(n=3, gamma=0.5)
P03 = CylinderParams(n=3, gamma=0.5, kappa=0.3)


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


def test_criterion_01_hardy_constant_identity():
    worst = 0.0
    for n in (2, 3, 4, 5, 6):
        for gamma in (0.1, 0.25, 0.5, 0.75, 0.9):
            params = CylinderParams(n=n, gamma=gamma)
            value = complex(theta(params, 0, 0.0)).real
            worst = max(worst, abs(value - hardy_constant(n, gamma)))
    print(f"criterion 01: max |Theta_0(0) - Lambda| = {worst:.3e} (tol 1e-12)")
    assert worst <= 1e-12


def test_criterion_02_unshifted_indicial_roots():
    worst = 0.0
    for n, gamma in ((3, 0.5), (4, 0.75), (5, 0.9)):
        params = CylinderParams(n=n, gamma=gamma)
        roots = find_roots(params, mode=0, count=5)
        for j, root in enumerate(roots):
            want = (n - 2.0 * gamma) / 2.0 + 2.0 * j
            worst = max(worst, abs(root.sigma - want), abs(root.tau))
    print(f"criterion 02: max root deviation = {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_03_symbol_symmetry_and_growth():
    rng = np.random.default_rng(12345)
    worst_sym = 0.0
    for n, gamma in ((3, 0.5), (4, 0.75)):
        params = CylinderParams(n=n, gamma=gamma)
        height = 0.4 * (n - 2.0 * gamma) / 2.0
        for mode in (0, 3):
            z = rng.uniform(-4.0, 4.0, 100) + 1j * rng.uniform(-height, height, 100)
            plus = np.atleast_1d(np.asarray(theta(params, mode, z), dtype=complex))
            minus = np.atleast_1d(np.asarray(theta(params, mode, -z), dtype=complex))
            rel = np.abs(plus - minus) / (1.0 + np.abs(plus))
            worst_sym = max(worst_sym, float(np.max(rel)))

    band_lo, band_hi = np.inf, -np.inf
    for n, gamma in ((3, 0.5), (4, 0.75)):
        params = CylinderParams(n=n, gamma=gamma)
        for mode in range(6):
            for sign in (1.0, -1.0):
                xi = sign * np.geomspace(10.0, 100.0, 40)
                vals = np.real(np.atleast_1d(theta(params, mode, xi)))
                ratio = vals / np.abs(mode + 1j * xi) ** (2.0 * gamma)
                band_lo = min(band_lo, float(ratio.min()))
                band_hi = max(band_hi, float(ratio.max()))
    print(
        f"criterion 03: symmetry defect {worst_sym:.3e} (tol 1e-12); "
        f"growth ratio in [{band_lo:.4f}, {band_hi:.4f}] (band [0.5, 2])"
    )
    assert worst_sym <= 1e-12
    assert 0.5 <= band_lo and band_hi <= 2.0


def test_criterion_04_series_vs_quadrature():
    worst = 0.0
    for n, gamma, kappa in ((3, 0.5, 0.0), (3, 0.5, 0.3), (4, 0.75, 0.5)):
        params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
        truncation = 40
        while True:
            series = build_greens(params, 0, truncation=truncation)
            if series.tail_bound_at(0.1) <= 1e-8:
                break
            truncation *= 2
        for t in np.geomspace(0.1, 5.0, 10):
            reference = greens_quadrature_oracle(params, 0, float(t))
            rel = abs(series(float(t)) - reference) / abs(reference)
            worst = max(worst, rel)
    print(f"criterion 04: max relative series error = {worst:.3e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_05_solver_equivalence_and_order():
    h = _grid(lambda t: np.exp(-0.5 * ((t - 0.7) / 1.2) ** 2))
    series = build_greens(P03, 0, truncation=30)
    by_kernel = solve_convolution(series, h)
    by_system = solve_ode_system(series, h)
    gap = float(np.max(np.abs(by_kernel.samples - by_system.samples)))

    sups = {}
    for step in (2.0**-6, 2.0**-7):
        hs_grid = _grid(lambda t: np.exp(-0.5 * ((t - 0.7) / 1.2) ** 2), step=step)
        comps = component_solutions(series, hs_grid)
        hs = hs_grid.samples.real
        worst = 0.0
        for root, w in zip(series.roots, comps):
            lap = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / step**2
            resid = lap - root.sigma**2 * w[1:-1] + 2.0 * root.sigma * hs[1:-1]
            worst = max(worst, float(np.max(np.abs(resid))) / root.sigma**3)
        sups[step] = worst
    ratio = sups[2.0**-6] / sups[2.0**-7]
    print(
        f"criterion 05: solver gap {gap:.3e} (tol 1e-10); "
        f"ODE residual contraction {ratio:.2f} (band [2.8, 5.5])"
    )
    assert gap <= 1e-10
    assert 2.8 <= ratio <= 5.5


def test_criterion_06_asymptotic_amplitude_law():
    series = build_greens(P03, 0, truncation=60)
    h = _grid(lambda t: np.exp(-2.0 * np.abs(t)))
    w = solve_convolution(series, h)
    sigma0 = series.roots[0].sigma
    c0 = series.coefficients[0]
    decay = 2.0
    amplitude = c0 * 2.0 * decay / (decay**2 - sigma0**2)
    t = w.t
    window = (t >= 5.0) & (t <= 9.0)
    measured = w.samples.real[window] * np.exp(sigma0 * t[window])
    worst = float(np.max(np.abs(measured / amplitude - 1.0)))
    print(f"criterion 06: amplitude-law deviation = {worst:.3e} (tol 1e-2)")
    assert worst <= 1e-2


def test_criterion_07_bubble_residual():
    amp_err = abs(bubble_amplitude(P35) - math.pi / 2.0)
    profile = _grid(lambda t: bubble(P35, t))
    residual = bubble_residual(P35, profile)
    print(
        f"criterion 07: |C - pi/2| = {amp_err:.3e} (tol 1e-13); "
        f"residual = {residual:.3e} (tol 1e-6)"
    )
    assert amp_err <= 1e-13
    assert residual <= 1e-6


def test_criterion_08_nonlinear_recovery():
    worst_err, worst_iters = 0.0, 0
    for n, gamma in ((3, 0.5), (4, 0.75)):
        params = CylinderParams(n=n, gamma=gamma)
        scale = params.lam ** (1.0 / (params.p - 1.0))
        exact = scale * bubble(params, np.arange(1))  # peak value at t = 0
        grid = _grid(
            lambda t: scale
            * bubble(params, t)
            * (1.0 + 0.1 * np.cos(t) * np.exp(-(t**2) / 18.0))
        )
        report = solve_profile(params, grid, tolerance=1e-10, max_iterations=20)
        target = scale * bubble(params, grid.t)
        err = float(np.max(np.abs(report.solution.samples.real - target)))
        rel = err / float(exact[0])
        worst_err = max(worst_err, rel)
        worst_iters = max(worst_iters, report.iterations)
    print(
        f"criterion 08: relative sup error {worst_err:.3e} (tol 1e-4), "
        f"iterations {worst_iters} (max 15)"
    )
    assert worst_err <= 1e-4
    assert worst_iters <= 15


def test_criterion_09_pohozaev_identity():
    spreads = {}
    for step in (2.0**-7, 2.0**-8):
        guess = _grid(lambda t: 1.0 / np.cosh(t), step=step)
        report = solve_profile(P35, guess, tolerance=1e-12)
        checked = pohozaev_check(P35, report.solution, truncation=12)
        spreads[step] = checked.relative_spread
    ratio = spreads[2.0**-7] / spreads[2.0**-8]
    print(
        f"criterion 09: spread {spreads[2.0 ** -7]:.3e} (tol 1e-3) "
        f"contracting {ratio:.2f}x under step halving (band [2.5, 6])"
    )
    assert spreads[2.0**-7] <= 1e-3
    assert 2.5 <= ratio <= 6.0


def test_criterion_10_wronskian_identity():
    series = build_greens(P03, 0, truncation=12)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        h, ht = _random_source(rng, 2.0**-7), _random_source(rng, 2.0**-7)
        w, wt = solve_convolution(series, h), solve_convolution(series, ht)
        defect = wronskian_defect(series, w, wt, h, ht)
        drive = 2.0 * (
            ht.samples.real * w.samples.real - h.samples.real * wt.samples.real
        )
        tr = wronskian(series, w, wt, h, ht)
        scale = np.max(np.abs(drive)) + np.max(np.abs(tr.samples))
        worst = max(worst, float(np.max(np.abs(defect.samples.real[2:-2]))) / scale)

    ratios = []
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
        ratios.append(sups[2.0**-7] / sups[2.0**-8])

    flatness = _shared_potential_flatness()
    print(
        f"criterion 10: defect/scale {worst:.3e} (tol 2e-3); contraction "
        f"{min(ratios):.2f}..{max(ratios):.2f} (band [2.8, 6]); "
        f"shared-potential TV/scale {flatness:.3e} (tol 1e-5)"
    )
    assert worst <= 2e-3
    assert all(2.8 <= r <= 6.0 for r in ratios)
    assert flatness <= 1e-5


def _shared_potential_flatness():
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
    return float(np.sum(np.abs(np.diff(tr)))) / scale


def test_criterion_11_kernel_asymptotics():
    band_lo, band_hi = np.inf, -np.inf
    for n, gamma, p in ((3, 0.5, None), (4, 0.75, None), (3, 0.5, 1.8)):
        params = CylinderParams(n=n, gamma=gamma, p=p)
        t = np.geomspace(1e-4, 1e-1, 40)
        for side in (t, -t):
            vals = kernel_K0(params, side) * np.abs(side) ** (1.0 + 2.0 * gamma)
            band_lo = min(band_lo, float(vals.min()))
            band_hi = max(band_hi, float(vals.max()))

    worst_slope = 0.0
    for n, gamma, p in ((3, 0.5, None), (3, 0.5, 1.8)):
        params = CylinderParams(n=n, gamma=gamma, p=p)
        base = (params.n + 2.0 * params.gamma) / 2.0
        for sign, rate in ((1.0, base + params.q0), (-1.0, base - params.q0)):
            t = 14.0
            slope = -math.log(
                kernel_K0(params, sign * (t + 1.0)) / kernel_K0(params, sign * t)
            )
            worst_slope = max(worst_slope, abs(slope - rate) / rate)
    print(
        f"criterion 11: small-t band [{band_lo:.4f}, {band_hi:.4f}] "
        f"(required positive, within [0.1, 0.5]); tail-slope deviation "
        f"{worst_slope:.3e} (tol 2e-2)"
    )
    assert 0.1 <= band_lo and band_hi <= 0.5
    assert worst_slope <= 2e-2


def test_criterion_12_frobenius_and_thresholds():
    roots = find_roots(P03, mode=0, count=2)
    s0, s1 = roots[0].sigma, roots[1].sigma
    planted = _grid(lambda t: 1.3 * np.exp(-s0 * np.abs(t)) - 0.45 * np.exp(-s1 * np.abs(t)))
    fit = frobenius_fit(planted, window=(10.0, 20.0))
    two_term_err = max(abs(fit.sigma - s0), abs(fit.tau))

    wave = _grid(lambda t: np.exp(-0.9 * np.abs(t)) * np.cos(2.3 * np.abs(t) + 0.4))
    wave_fit = frobenius_fit(wave, window=(8.0, 18.0))
    wave_err = max(abs(wave_fit.sigma - 0.9), abs(wave_fit.tau - 2.3))

    const_err = 0.0
    for n, gamma in ((3, 0.5), (4, 0.75), (5, 0.9)):
        params = CylinderParams(n=n, gamma=gamma)
        const_err = max(const_err, abs(constant_A(params) - params.lam))

    p1 = solve_p1(3, 0.5)
    sub = CylinderParams(n=3, gamma=0.5, p=p1)
    p1_residual = abs(p1 * constant_A(sub) - sub.lam)
    print(
        f"criterion 12: planted fit errors {two_term_err:.3e} / {wave_err:.3e} "
        f"(tol 1e-3); A(p_crit) drift {const_err:.3e} (tol 1e-12); "
        f"p1 residual {p1_residual:.3e} (tol 1e-10)"
    )
    assert two_term_err <= 1e-3
    assert wave_err <= 1e-3
    assert const_err <= 1e-12
    assert p1_residual <= 1e-10
