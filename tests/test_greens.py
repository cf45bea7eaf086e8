"""Green's series vs quadrature, solver equivalence, asymptotics."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve

from conftest import clear_memos
from cylspec import greens
from cylspec.errors import (
    DecayHypothesisError,
    DomainError,
    QuadratureError,
    ValidationError,
    WindowError,
)
from cylspec.greens import (
    apply_symbol,
    asymptotic_coefficients,
    build_greens,
    component_solutions,
    greens_quadrature_oracle,
    solve_convolution,
    solve_ode_system,
)
from cylspec.grid import GridFunction, trapezoid, trapezoid_weights
from cylspec.identities import pohozaev_check, wronskian, wronskian_defect
from cylspec.indicial import find_roots
from cylspec.symbol import CylinderParams, mode_constants, theta

# Frozen 30-digit oscillatory-quadrature values of the inverse Fourier
# integral (1/2pi) int e^{i xi t} / (Theta_0(xi) - kappa) d xi.
G_35_K03 = {0.3: 0.94680695771398128, 1.0: 0.48615437232349659, 3.0: 0.10340253311990277}
G_4_K05 = {0.5: 0.49569393789516151, 2.0: 0.11713978161150766}
# Unstable regime, same integral along Im z = 1 (above the real pair).
G_35_K08 = {
    1.3: 0.0058754778188994,
    -1.3: -2.4956117809358814,
    2.5: 0.00019095156965028071,
    -2.5: -3.6539992424581449,
}
C0_UNSTABLE = 3.6892039821227459  # 2 / Theta'(tau_0) at kappa = 0.8

P03 = CylinderParams(n=3, gamma=0.5, kappa=0.3)
P08 = CylinderParams(n=3, gamma=0.5, kappa=0.8)


def _gauss(width=1.0, t_max=30.0, step=2.0**-7):
    return GridFunction.from_callable(
        lambda t: np.exp(-0.5 * (t / width) ** 2) + 0j,
        t_min=-t_max,
        t_max=t_max,
        step=step,
    )


def test_series_structure():
    series = build_greens(P03, mode=0, truncation=12)
    assert series.regime == "stable"
    assert len(series.roots) == 13 and series.truncation == 12
    c0 = series.coefficients[0]
    assert abs(c0 - 1.0133992076048632) < 1e-11
    assert series.sigma_next > series.roots[-1].sigma
    assert series.tail_bound_at(2.0) < series.tail_bound_at(1.0) < series.tail_bound


def test_series_matches_quadrature_freeze():
    series = build_greens(P03, mode=0, truncation=80)
    for t, want in G_35_K03.items():
        assert abs(series(t) - want) < 1e-11
    series4 = build_greens(CylinderParams(n=4, gamma=0.75, kappa=0.5), 0, truncation=80)
    for t, want in G_4_K05.items():
        assert abs(series4(t) - want) < 1e-11


def test_series_kappa_zero_closed_form():
    series = build_greens(CylinderParams(n=3, gamma=0.5), mode=0, truncation=150)
    t = np.linspace(0.5, 4.0, 29)
    want = np.log(1.0 / np.tanh(t / 2.0)) / math.pi
    assert np.max(np.abs(series(t) - want)) < 1e-10


def test_series_evenness():
    series = build_greens(P03, mode=0, truncation=12)
    t = np.linspace(0.01, 6.0, 100)
    assert np.max(np.abs(series(t) - series(-t))) <= 1e-12


def test_unstable_series_reference():
    series = build_greens(P08, mode=0, truncation=40)
    assert series.regime == "unstable"
    assert series.roots[0].sigma == 0.0 and series.roots[0].tau > 0.0
    c0 = series.coefficients[0]
    assert abs(c0 - C0_UNSTABLE) < 1e-11
    for t, want in G_35_K08.items():
        assert abs(series(t) - want) < 1e-12
    # One-sided: the sine term is absent for t > 0.
    assert abs(series(2.5)) < 1e-3 and abs(series(-2.5)) > 1.0


def test_quadrature_oracle_reference():
    for t, want in G_35_K03.items():
        got = greens_quadrature_oracle(P03, 0, t)
        assert abs(got - want) < 1e-8 * abs(want)
    p4 = CylinderParams(n=4, gamma=0.75, kappa=0.5)
    for t, want in G_4_K05.items():
        assert abs(greens_quadrature_oracle(p4, 0, t) - want) < 1e-8 * abs(want)


def test_quadrature_oracle_evenness_and_slope():
    a = greens_quadrature_oracle(P03, 0, 0.7)
    b = greens_quadrature_oracle(P03, 0, -0.7)
    assert abs(a - b) <= 1e-8 * abs(a)
    # Log-slope at large t approaches sigma_0.
    g4 = greens_quadrature_oracle(P03, 0, 4.0)
    g5 = greens_quadrature_oracle(P03, 0, 5.0)
    slope = math.log(g4 / g5)
    assert abs(slope - 0.76091823639160877) < 0.01 * 0.76091823639160877


@pytest.mark.parametrize(
    "n, gamma, kappa, mode",
    [(4, 0.05, 0.1, 0), (2, 0.95, 0.001, 0), (2, 0.95, 0.001, 1), (3, 0.5, 0.3, 4), (5, 0.25, 0.2, 5)],
)
def test_edge_series_against_oracle_and_solvers(n, gamma, kappa, mode):
    # Edge regions: gamma near 0 and 1, n = 2 with kappa just below
    # Theta_0(0) = 0.0025, and modes 4 and 5.  The truncated series meets
    # the quadrature oracle at the spectral_sweep checks' 1e-6, and the
    # convolution and ODE routes agree on a Gaussian source.
    params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
    series = build_greens(params, mode, truncation=12)
    for t in (1.0, 2.0, 4.0):
        reference = greens_quadrature_oracle(params, mode, t)
        assert abs(series(t) - reference) <= 1e-6 * abs(reference)
    h = _gauss(width=1.0)
    by_kernel = solve_convolution(series, h).samples
    by_system = solve_ode_system(series, h).samples
    assert np.max(np.abs(by_kernel - by_system)) <= 1e-10 * np.max(np.abs(by_kernel))


def test_oracle_gauss_nodes_are_shared_and_unchanged():
    from cylspec import greens

    nodes, weights = greens._gauss_nodes()
    before = nodes.copy(), weights.copy()
    greens_quadrature_oracle(P03, 0, 1.0)
    again = greens._gauss_nodes()
    assert again[0] is nodes and again[1] is weights  # built once
    assert np.array_equal(nodes, before[0]) and np.array_equal(weights, before[1])
    assert abs(weights.sum() - 1.0) < 1e-14 and 0.0 < nodes.min() < nodes.max() < 1.0


def test_quadrature_oracle_guards():
    with pytest.raises(DomainError):
        greens_quadrature_oracle(P03, 0, 0.0)
    with pytest.raises(DomainError):
        greens_quadrature_oracle(P08, 0, 1.0)  # unstable regime
    with pytest.raises(ValidationError):
        greens_quadrature_oracle(P03, 0, 1.0, contour_shift=5.0)


@pytest.mark.parametrize(
    "params, mode",
    [(P03, 0), (P03, 4), (CylinderParams(n=2, gamma=0.95, kappa=0.001), 1),
     (CylinderParams(n=4, gamma=0.05, kappa=0.1), 0)],
)
def test_oracle_contour_pairs_are_conjugate(params, mode):
    # The oracle evaluates theta on z_+ = xi + i s only and takes
    # conj(theta(z_+)) for z_- = -xi + i s = -conj(z_+): exactly equal.
    sigma0 = find_roots(params, mode, count=1)[0].sigma
    xi = np.linspace(0.0, 60.0, 2001)
    for s in (0.0, 0.5 * sigma0, -0.5 * sigma0):
        zp = xi + 1j * s
        zm = -xi + 1j * s
        assert np.array_equal(zm, -np.conj(zp))
        assert np.array_equal(theta(params, mode, zm), np.conj(theta(params, mode, zp)))


def test_contour_shift_agrees_with_real_axis():
    direct = greens_quadrature_oracle(P03, 0, 2.0, contour_shift=0.0)
    shifted = greens_quadrature_oracle(P03, 0, 2.0, contour_shift=0.38)
    assert abs(direct - shifted) < 1e-9 * abs(direct)


def _theta_point_counts(monkeypatch):
    """Spy on the oracle's symbol calls; the list of points per call."""
    counts = []

    def spy(params, mode, z):
        counts.append(np.size(z))
        return theta(params, mode, z)

    monkeypatch.setattr(greens, "theta", spy)
    return counts


BLOCK_POINTS = 32 * 48  # one block of lobes at 48 Gauss nodes each


def test_oracle_stops_after_one_block(monkeypatch):
    # A workload-like call converges in the first 32 lobes.  The first
    # call is the regime check at z = 0.
    counts = _theta_point_counts(monkeypatch)
    greens_quadrature_oracle(CylinderParams(n=3, gamma=0.5, kappa=0.3), 0, 2.0)
    assert counts == [1, BLOCK_POINTS]


def test_oracle_evaluates_each_lobe_once(monkeypatch):
    # This call needs a second block: 64 lobes in all, with the first 32
    # kept rather than evaluated again.
    params = CylinderParams(n=5, gamma=0.25, kappa=0.2)
    counts = _theta_point_counts(monkeypatch)
    got = greens_quadrature_oracle(params, 5, 5.0)
    assert counts == [1, BLOCK_POINTS, BLOCK_POINTS]
    want = build_greens(params, 5, truncation=40)(5.0)
    assert abs(got - want) <= 1e-6 * abs(want)


def test_oracle_failure_names_its_lobe_count(monkeypatch):
    # At t = 8 this mode's value is 2.9e-26 and the estimate never meets
    # the relative tolerance: the oracle stops at its cap of 384 lobes,
    # 12 blocks each evaluated once, and says so.  The message gives the
    # last estimate of G(t), not of the line integral, 2 pi times it.
    params = CylinderParams(n=5, gamma=0.25, kappa=0.2)
    counts = _theta_point_counts(monkeypatch)
    with pytest.raises(QuadratureError, match=r"in 384 lobes: err .*, value ") as info:
        greens_quadrature_oracle(params, 5, 8.0)
    assert counts == [1] + [BLOCK_POINTS] * 12
    value = complex(str(info.value).rsplit("value ", 1)[1])
    want = build_greens(params, 5, truncation=40)(8.0)
    assert abs(value - want) <= 0.01 * abs(want)


def test_solve_zero_rhs():
    series = build_greens(P03, mode=0, truncation=12)
    h = GridFunction.from_callable(lambda t: np.zeros_like(t) + 0j, -10, 10, 0.125)
    w = solve_convolution(series, h)
    assert np.max(np.abs(w.samples)) == 0.0


def test_window_decay_enforced():
    series = build_greens(P03, mode=0, truncation=12)
    h = GridFunction.from_callable(lambda t: np.exp(-np.abs(t)) + 0j, -5, 5, 0.125)
    with pytest.raises(WindowError):
        solve_convolution(series, h)


def test_narrow_source_recovers_kernel():
    series = build_greens(P03, mode=0, truncation=60)
    width = 0.05
    h = GridFunction.from_callable(
        lambda t: np.exp(-0.5 * (t / width) ** 2) / (width * math.sqrt(2 * math.pi)) + 0j,
        -30.0,
        30.0,
        2.0**-7,
    )
    w = solve_convolution(series, h)
    for t in (1.0, 2.0, 4.0):
        k = round((t - w.t_min) / w.step)
        assert abs(w.samples[k].real / series(t) - 1.0) < 2e-3


def test_solver_equivalence_and_linearity():
    for params in (P03, P08):
        series = build_greens(params, mode=0, truncation=12)
        h1 = _gauss(width=1.0)
        h2 = GridFunction.from_callable(
            lambda t: np.exp(-0.4 * t**2) * np.cos(t) + 0j, -30.0, 30.0, 2.0**-7
        )
        h = h1.with_samples(h1.samples + 0.7 * h2.samples)
        wc = solve_convolution(series, h)
        wo = solve_ode_system(series, h)
        scale = np.max(np.abs(wc.samples))
        assert np.max(np.abs(wc.samples - wo.samples)) <= 1e-10 * scale
        lin = (
            solve_convolution(series, h1).samples
            + 0.7 * solve_convolution(series, h2).samples
        )
        assert np.max(np.abs(wc.samples - lin)) <= 1e-12 * scale


@pytest.mark.parametrize("params", [P03, P08], ids=["stable", "unstable"])
def test_complex_source_solves_each_part(params):
    # A complex source is solved as its real and imaginary parts, each a
    # real source, so the result is bit for bit the two solves combined.
    series = build_greens(params, mode=0, truncation=12)
    h1 = _gauss(width=1.0)
    h2 = GridFunction.from_callable(
        lambda t: np.exp(-0.4 * t**2) * np.cos(t) + 0j, -30.0, 30.0, 2.0**-7
    )
    h = h1.with_samples(h1.samples.real + 1j * h2.samples.real)
    for solve in (solve_convolution, solve_ode_system):
        want = solve(series, h1).samples + 1j * solve(series, h2).samples
        assert np.array_equal(solve(series, h).samples, want)


def test_component_ode_residuals():
    h = _gauss(width=1.2)
    series = build_greens(P03, mode=0, truncation=6)
    comps = component_solutions(series, h)
    step = h.step
    hs = h.samples.real
    for root, w in zip(series.roots, comps):
        lap = (w[2:] - 2 * w[1:-1] + w[:-2]) / step**2
        resid = lap - root.sigma**2 * w[1:-1] + 2 * root.sigma * hs[1:-1]
        bound = 1.0 * root.sigma**3 * step**2 * np.max(np.abs(hs)) + 1e-9
        assert np.max(np.abs(resid)) <= bound


def test_unstable_component_ode():
    h = _gauss(width=1.2)
    series = build_greens(P08, mode=0, truncation=6)
    comps = component_solutions(series, h)
    tau0 = series.roots[0].tau
    w = comps[0]
    step = h.step
    lap = (w[2:] - 2 * w[1:-1] + w[:-2]) / step**2
    resid = lap + tau0**2 * w[1:-1] + tau0 * h.samples.real[1:-1]
    assert np.max(np.abs(resid)) <= 1e-3


def _direct_components(series, h):
    """Per-root trapezoid convolutions summed term by term, O(n^2), with
    the local size that bounds the sweep's round-off: ``|kernel| * |u|``,
    and for the sine kernel the source's mass ``|u|`` to the right."""
    u = h.step * trapezoid_weights(h.n_points) * h.samples
    lag = h.t[:, None] - h.t[None, :]
    out = []
    for root in series.roots:
        if root.sigma == 0.0:
            kernel = np.sin(root.tau * lag) * (lag < 0.0)
            size = lag <= 0.0
        else:
            kernel = np.exp(-complex(root.sigma, root.tau) * np.abs(lag))
            size = np.abs(kernel)
        out.append((kernel @ u, size @ np.abs(u)))
    return out


# (points, step): fewer points than a block, sizes off a multiple of the
# block, and step 1, where sigma_j * step passes 20 and block powers underflow.
SWEEP_LATTICES = [(7, 0.5), (31, 0.125), (33, 1.0), (481, 2.0**-5)]
P00 = CylinderParams(n=3, gamma=0.5)


@pytest.mark.parametrize("points, step", SWEEP_LATTICES)
@pytest.mark.parametrize("params", [P03, P00, P08], ids=["stable", "zero", "unstable"])
def test_component_sweep_matches_direct_sum(params, points, step):
    series = build_greens(params, mode=0, truncation=12)
    half = 0.5 * step * (points - 1)
    env = lambda t: np.exp(-25.0 * (t / half) ** 2)  # 1.4e-11 at the ends
    real = GridFunction.from_callable(
        lambda t: env(t) * (1.0 + 0.3 * np.cos(2.0 * t)) + 0j, -half, half, step
    )
    cplx = real.with_samples(real.samples + 0.5j * env(real.t) * np.sin(real.t + 0.2))
    if points == 33:
        assert series.roots[-1].sigma * step > 20.0
    for h in (real, cplx):
        for got, (want, local) in zip(
            component_solutions(series, h), _direct_components(series, h)
        ):
            err = np.abs(got - want)
            assert np.max(err) <= 1e-13 * np.max(np.abs(want))
            # Round-off relative to the local size, so decaying tails keep their digits.
            assert np.all(err <= 1e-13 * local + 1e-300)


@pytest.mark.parametrize("params", [P03, P08], ids=["stable", "unstable"])
def test_component_sweep_single_root(params):
    # Truncation 0: one decaying root, or only the unstable real pair.
    series = build_greens(params, mode=0, truncation=0)
    h = GridFunction.from_callable(lambda t: np.exp(-0.5 * t**2) + 0j, -8.0, 8.0, 0.125)
    (got,) = component_solutions(series, h)
    ((want, _),) = _direct_components(series, h)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# The benchmark's spectral sweep: (n, gamma, kappa, mode).
SWEEP_CASES = [
    (2, 0.10, 0.30, 0),
    (3, 0.50, 0.30, 0),
    (5, 0.25, 0.20, 2),
    (6, 0.90, 0.50, 3),
    (4, 0.60, 0.00, 1),
    (2, 0.90, 0.00, 0),
    (3, 0.50, 1.00, 0),
    (4, 0.40, 3.50, 2),
]


def test_component_sweep_matches_fft_route_on_prime_lattice():
    # The per-root FFT convolution on the default 7681-point lattice.
    h = GridFunction.from_callable(
        lambda t: 1.2 * np.exp(-0.5 * ((t - 1.1) / 0.7) ** 2)
        + 0.6 * np.exp(-0.5 * ((t + 2.3) / 1.3) ** 2)
        + 0j
    )
    n = h.n_points
    lag = (np.arange(2 * n - 1) - (n - 1)) * h.step
    u = h.samples.real * trapezoid_weights(n)
    for n_dim, gamma, kappa, mode in SWEEP_CASES:
        series = build_greens(CylinderParams(n=n_dim, gamma=gamma, kappa=kappa), mode, 12)
        for root, got in zip(series.roots, component_solutions(series, h)):
            if root.sigma == 0.0:
                kernel = np.sin(root.tau * lag) * (lag < 0.0)
            else:
                kernel = np.exp(-complex(root.sigma, root.tau) * np.abs(lag))
            want = fftconvolve(kernel, u)[n - 1 : 2 * n - 1] * h.step
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _real_pair(step=2.0**-7):
    h = GridFunction.from_callable(lambda t: np.exp(-0.5 * (t - 1.0) ** 2), step=step)
    h2 = GridFunction.from_callable(lambda t: np.exp(-0.8 * (t + 0.5) ** 2) * np.cos(t), step=step)
    return h, h2


def test_source_pair_is_swept_once(cold, monkeypatch):
    # The solves, the Wronskian and its defect on one source pair share
    # one sweep per source, and both convolutions one sampled kernel.
    calls = []
    sweep = greens._sweep
    monkeypatch.setattr(greens, "_sweep", lambda *args: calls.append(args) or sweep(*args))
    series = build_greens(P03, 0, truncation=12)
    h, h2 = _real_pair()
    w, w2 = solve_ode_system(series, h), solve_ode_system(series, h2)
    wronskian(series, w, w2, h, h2)
    wronskian_defect(series, w, w2, h, h2)
    assert [args[1] for args in calls] == [h, h2]
    solve_convolution(series, h)
    solve_convolution(series, h2)
    assert greens._kernel.cache_info().misses == 1


@pytest.mark.parametrize("n", [13, 41, 64, 7681])
@pytest.mark.parametrize("params", [CylinderParams(n=2, gamma=0.9), P08], ids=["slow", "unstable"])
def test_cyclic_convolution_is_the_linear_one(params, n):
    # solve_convolution's n outputs are one cyclic convolution at
    # L = next_fast_len(2n - 1): the window [n-1, 2n-1) of the linear
    # convolution on the 2n - 1 lags, with L = 2n - 1 = 25 and 81 (odd),
    # L = 2n = 128 and L = 15552 for 2n - 1 = 15361.  On [-30, 30] the slow
    # series (sigma_0 ~ 0.1) is still 2.5e-3 of its peak at lag 60 and the
    # unstable one's sine never decays, so a lag out of place shows far
    # above round-off.
    series = build_greens(params, 0, truncation=12)
    h = GridFunction.from_callable(
        lambda t: np.exp(-(((t - 3.0) / 4.0) ** 2)), step=60.0 / (n - 1)
    )
    assert h.n_points == n
    lags = (np.arange(2 * n - 1) - (n - 1)) * h.step
    u = h.samples * trapezoid_weights(n)
    want = fftconvolve(series(lags), u)[n - 1 : 2 * n - 1] * h.step
    got = solve_convolution(series, h).samples
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("params", [P03, P08], ids=["stable", "unstable"])
def test_one_transform_pair_per_source_at_the_cyclic_length(cold, monkeypatch, params):
    # A cold (series, lattice) runs the kernel's rfft, the source's rfft
    # and one irfft, all at L = next_fast_len(2n - 1); the pair's second
    # source takes the memoized spectrum and runs one of each.  Nothing
    # runs at the linear convolution's next_fast_len(3n - 2).  The kernel,
    # the first rfft's input, holds the series on the lags 0 .. n-1 and
    # -(n-1) .. -1 within a few ulps of its peak, zeros between.
    calls = Counter()
    inputs = []
    rfft, irfft = scipy.fft.rfft, scipy.fft.irfft

    def spy_rfft(x, n=None, *args, **kwargs):
        calls["rfft", x.shape[-1] if n is None else n] += 1
        inputs.append(x)
        return rfft(x, n, *args, **kwargs)

    def spy_irfft(x, n=None, *args, **kwargs):
        calls["irfft", n] += 1
        return irfft(x, n, *args, **kwargs)

    series = build_greens(params, 0, truncation=12)
    h, h2 = _real_pair()
    n = h.n_points
    length = scipy.fft.next_fast_len(2 * n - 1, real=True)
    assert length < scipy.fft.next_fast_len(3 * n - 2, real=True)
    monkeypatch.setattr(scipy.fft, "rfft", spy_rfft)
    monkeypatch.setattr(scipy.fft, "irfft", spy_irfft)
    solve_convolution(series, h)
    assert calls == {("rfft", length): 2, ("irfft", length): 1}
    solve_convolution(series, h2)
    assert calls == {("rfft", length): 3, ("irfft", length): 2}
    spectrum, memo_length = greens._kernel(series, n, h.step)
    assert memo_length == length and not spectrum.flags.writeable
    kernel = inputs[0]
    assert kernel.size == length and not kernel[n : length - n + 1].any()
    lags = np.concatenate([np.arange(n), np.arange(1 - n, 0)]) * h.step
    stored = np.concatenate([kernel[:n], kernel[length - n + 1 :]])
    ulp = np.finfo(float).eps * np.max(np.abs(kernel))
    assert np.max(np.abs(stored - series(lags))) <= 4.0 * ulp
    if series.regime == "stable":
        assert np.array_equal(kernel[length - n + 1 :], kernel[n - 1 : 0 : -1])


def test_memoized_components_are_one_read_only_array(cold):
    series = build_greens(P03, 0, truncation=12)
    h, _ = _real_pair()
    first = component_solutions(series, h)
    again = component_solutions(series, h)
    assert again is first and first.shape == (13, h.n_points)
    spectrum, length = greens._kernel(series, h.n_points, h.step)
    with pytest.raises(ValueError):
        again[0][0] = 1.0  # a row, as the callers take them
    with pytest.raises(ValueError):
        spectrum[0] = 1.0
    by_kernel = solve_convolution(series, h)
    clear_memos()
    assert np.array_equal(again, component_solutions(series, h))
    cold_spectrum, cold_length = greens._kernel(series, h.n_points, h.step)
    assert cold_length == length and np.array_equal(cold_spectrum, spectrum)
    assert np.array_equal(solve_convolution(series, h).samples, by_kernel.samples)


def test_green_memos_are_bounded(cold):
    series = build_greens(P03, 0, truncation=4)
    for step in (0.25, 0.125, 2.0**-4, 2.0**-5, 2.0**-6):
        h, _ = _real_pair(step)
        component_solutions(series, h)
        solve_convolution(series, h)
    for memo in (greens.component_solutions, greens._kernel):
        assert memo.cache_info().currsize == memo.cache_parameters()["maxsize"] == 2


def test_pohozaev_check_leaves_the_components_memo_empty(cold):
    # Its source is made inside the call, so an entry could never be hit.
    pohozaev_check(
        CylinderParams(n=3, gamma=0.5), GridFunction.from_callable(lambda t: 1.0 / np.cosh(t))
    )
    info = greens.component_solutions.cache_info()
    assert info.currsize == info.hits == info.misses == 0


@pytest.mark.parametrize("params", [P03, P00, P08], ids=["stable", "zero", "unstable"])
def test_memoized_solves_match_cold_ones(cold, params):
    # A complex source splits into parts made afresh on each call; the
    # unstable regime's first component is the one-sided sine.  The
    # components are one read-only (roots, n) array per source, shared by
    # a memo hit: float64 for the real source, its sine row included, and
    # complex128 for the complex one.
    series = build_greens(params, 0, truncation=8)
    real, _ = _real_pair()
    source = real.with_samples(real.samples * (1.0 + 0.5j))

    def run():
        comps = component_solutions(series, real), component_solutions(series, source)
        for array, dtype in zip(comps, (np.float64, np.complex128)):
            assert array.shape == (9, real.n_points) and array.dtype == dtype
            assert not array.flags.writeable
        assert component_solutions(series, real) is comps[0]
        solves = solve_ode_system(series, source), solve_convolution(series, source)
        return [*comps[0], *comps[1], *(g.samples for g in solves)]

    first, warm = run(), run()
    clear_memos()
    cold_run = run()
    assert len(cold_run) == 2 * 9 + 2
    for got in (first, warm):
        assert all(np.array_equal(a, b) for a, b in zip(got, cold_run))


def test_operator_recovers_rhs():
    # Residual of the symbol applied to the solved profile falls off like
    # the reciprocal truncation depth (dropped kernel mass).
    h = _gauss(width=1.0)
    errs = {}
    for trunc in (40, 160):
        series = build_greens(P03, mode=0, truncation=trunc)
        w = solve_convolution(series, h)
        back = apply_symbol(P03, 0, w).samples - P03.kappa * w.samples
        errs[trunc] = np.max(np.abs(back - h.samples)) / np.max(np.abs(h.samples))
    assert errs[40] < 7e-3
    assert errs[160] < 1.2e-3
    assert errs[160] < 0.5 * errs[40]


def test_asymptotic_coefficients_closed_form():
    series = build_greens(P03, mode=0, truncation=4)
    delta = 2.0
    h = GridFunction.from_callable(
        lambda t: np.exp(-delta * np.abs(t)) + 0j, -30.0, 30.0, 2.0**-7
    )
    coeffs = asymptotic_coefficients(series.roots[:1], h)
    s0 = series.roots[0].sigma
    want = 2 * delta / (delta**2 - s0**2)
    assert abs(coeffs[0] - want) < 1e-4 * want
    zero = GridFunction.from_callable(lambda t: np.zeros_like(t) + 0j, -10, 10, 0.125)
    assert asymptotic_coefficients(series.roots[:2], zero) == [0.0, 0.0]


def test_asymptotic_coefficients_of_a_sign_changing_source_are_real():
    series = build_greens(P03, mode=0, truncation=4)
    h = GridFunction.from_callable(
        lambda t: np.exp(-4.0 * np.abs(t)) * np.cos(t) + 0j, -30.0, 30.0, 2.0**-7
    )
    coeffs = asymptotic_coefficients(series.roots[:2], h)
    assert all(type(c) is float for c in coeffs)
    for root, c in zip(series.roots, coeffs):
        want = trapezoid(np.exp(root.sigma * h.t) * h.samples.real, h.step)
        assert abs(c - want) <= 1e-14 * abs(want)
    # A complex source keeps its phase.
    turned = asymptotic_coefficients(series.roots[:2], h.with_samples(h.samples * (1.0 + 1.0j)))
    for c, t in zip(coeffs, turned):
        assert type(t) is complex and abs(t - (1.0 + 1.0j) * c) <= 1e-14 * abs(c)


def test_asymptotic_amplitude_law():
    series = build_greens(P03, mode=0, truncation=12)
    h = GridFunction.from_callable(
        lambda t: np.exp(-2.0 * np.abs(t)) + 0j, -30.0, 30.0, 2.0**-7
    )
    w = solve_convolution(series, h)
    c0 = series.coefficients[0]
    s0 = series.roots[0].sigma
    want = c0 * 2 * 2.0 / (4.0 - s0**2)
    t = w.t
    sel = (t >= 5.0) & (t <= 9.0)
    measured = w.samples.real[sel] * np.exp(s0 * t[sel])
    assert np.max(np.abs(measured / want - 1.0)) < 0.01


def test_decay_hypothesis_guard():
    series = build_greens(P03, mode=0, truncation=4)
    slow = GridFunction.from_callable(
        lambda t: np.exp(-0.5 * np.abs(t)) + 0j, -60.0, 60.0, 2.0**-5
    )
    with pytest.raises(DecayHypothesisError):
        asymptotic_coefficients(series.roots, slow)


def _full_moments(series):
    """``(q(0), q''(0), q''''(0))`` of ``q = 1/(Theta_m - kappa)``: dropped plus kept sums."""
    s1, s3, s5 = series.dropped_moments()
    sigmas = series.decay_exponents
    ratios = np.array(series.coefficients) / sigmas
    kept = [np.sum(ratios / sigmas ** (k - 1)) for k in (1, 3, 5)]
    return 2.0 * (s1 + kept[0]), -4.0 * (s3 + kept[1]), 48.0 * (s5 + kept[2])


def _mpmath_moments(params, mode, theta0=None):
    """40-digit ``diff`` of ``1/(c Theta_m - kappa)`` at 0; ``c`` takes ``Theta_m(0)`` to theta0."""
    a, b = mode_constants(params, mode)
    with mpmath.workdps(40):
        a, b, g = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(params.gamma)

        def symbol(x):
            w = 0.5j * x
            return mpmath.re(
                2 ** (2 * g)
                * mpmath.gamma(a + w)
                * mpmath.gamma(a - w)
                * mpmath.rgamma(b + w)
                * mpmath.rgamma(b - w)
            )

        c = 1 if theta0 is None else mpmath.mpf(theta0) / symbol(0)
        return [
            float(mpmath.diff(lambda x: 1 / (c * symbol(x) - params.kappa), 0, k))
            for k in (0, 2, 4)
        ]


@pytest.mark.parametrize("gamma", [0.05, 0.95])
@pytest.mark.parametrize("mode", range(5))
def test_dropped_moments_match_mpmath_near_threshold(gamma, mode):
    # kappa is within 1% of Theta_m(0), so D = Theta_m(0) - kappa is 1% of
    # Theta_m(0) and the moments are conditioned by Theta_m(0)/D = 100
    # against the symbol's round-off at 0 (up to 6e-15 relative, at mode
    # 4, gamma 0.95).  Against mpmath on the symbol scaled to the
    # library's Theta_m(0) only the closed form is tested, to 1e-13
    # relative; against plain mpmath, that times the conditioning.
    theta0 = complex(theta(CylinderParams(n=2, gamma=gamma), mode, 0.0)).real
    params = CylinderParams(n=2, gamma=gamma, kappa=0.99 * theta0)
    got = _full_moments(build_greens(params, mode, 12))
    conditioning = theta0 / (theta0 - params.kappa)
    exact, plain = _mpmath_moments(params, mode, theta0), _mpmath_moments(params, mode)
    for g, e, p in zip(got, exact, plain):
        assert abs(g - e) <= 1e-13 * abs(e)
        assert abs(g - p) <= 1e-13 * conditioning * abs(p)


def _dropped_fractions(params, mode):
    """The dropped fourth and sixth moments at truncations 150 and 12, as
    fractions of the full moments: ``(s3, s5, t3, t5)``."""
    short, long = build_greens(params, mode, 12), build_greens(params, mode, 150)
    _, q2, q4 = _full_moments(long)
    full = (-0.25 * q2, q4 / 48.0)
    s3, s5 = (abs(s / f) for s, f in zip(long.dropped_moments()[1:], full))
    t3, t5 = (abs(s / f) for s, f in zip(short.dropped_moments()[1:], full))
    return s3, s5, t3, t5


@pytest.mark.parametrize(
    "n, gamma, kappa",
    [(3, 0.5, 0.3), (4, 0.1, 0.05), (5, 0.25, 0.0), (2, 0.05, 0.5), (6, 0.9, 1.0)],
)
def test_kept_sums_converge_to_closed_form_moments(n, gamma, kappa):
    # The dropped moments are the closed form less the kept sums, so they
    # shrink with the truncation only if the closed form is the series'
    # own moment.  The largest at truncation 150 are 6.5e-5 and 1.2e-8 of
    # the full moment, at (4, 0.1, 0.05), mode 3.
    params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
    for mode in range(4):
        s3, s5, t3, t5 = _dropped_fractions(params, mode)
        assert s3 < 1e-4 and s5 < 1e-7
        assert s3 < t3 and s5 < t5


def test_kept_sums_converge_to_closed_form_moments_near_gamma_one():
    # gamma = 0.95 with kappa below Theta_0(0) = 0.0025, so every mode is
    # stable.  At mode 0 the sixth-moment remainders of both truncations
    # are round-off (3.1e-15 each), so only a larger one must shrink.
    params = CylinderParams(n=2, gamma=0.95, kappa=0.001)
    for mode in range(4):
        s3, s5, t3, t5 = _dropped_fractions(params, mode)
        assert s3 < 1e-4 and s5 < 1e-7
        assert s3 < t3
        assert s5 < t5 or t5 <= 1e-13


@pytest.mark.parametrize("mode", range(4))
def test_long_series_builds_when_gamma_is_near_one(mode):
    # Theta grows like |z|^(2 gamma), about 5e4 at the last root z = 300i
    # here, and its round-off with it; an absolute residual bound of 1e-8
    # rejected these roots.  They match 40-digit mpmath to round-off.
    params = CylinderParams(n=2, gamma=0.95, kappa=0.5)
    series = build_greens(params, mode, 150)
    a, b = mode_constants(params, mode)
    with mpmath.workdps(40):
        a, b, g = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(params.gamma)

        def level(sigma):  # Theta_m(i sigma) - kappa
            s = sigma / 2
            ratio = mpmath.gamma(a - s) * mpmath.gamma(a + s)
            return 2 ** (2 * g) * ratio * mpmath.rgamma(b - s) * mpmath.rgamma(b + s) - 0.5

        for root in series.roots[-20:]:
            exact = mpmath.findroot(level, mpmath.mpf(root.sigma))
            assert abs(root.sigma - float(exact)) <= 4e-16 * root.sigma


def test_dropped_moments_need_a_decaying_series():
    unstable = build_greens(CylinderParams(n=3, gamma=0.5, kappa=0.8), 0, truncation=8)
    with pytest.raises(ValidationError):
        unstable.dropped_moments()
