"""Symbol layer: Gamma-ratio identities, closed forms, classification."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import loggamma

from cylspec import specfun, symbol
from cylspec.errors import CylspecError, PoleError, ThresholdError, ValidationError
from cylspec.grid import angular_frequencies, multiply
from cylspec.symbol import (
    CylinderParams,
    ModeIndex,
    constant_A,
    hardy_constant,
    kernel_K0,
    mode_constants,
    solve_p1,
    stability_classify,
    theta,
    theta_derivative,
    theta_lattice,
    theta_shifted,
)

# Frozen from a 40-digit Gamma-ratio evaluation.
HARDY_TABLE = [
    ((3, 0.5), 0.6366197723675813),  # = 2/pi
    ((4, 0.5), 1.0942198076132383),
    ((4, 0.75), 1.0860543196772348),
    ((5, 0.9), 2.121090139773654),
    ((2, 0.25), 0.5179298952258389),
    ((6, 0.1), 1.1570322577162021),
]

P35 = CylinderParams(n=3, gamma=0.5)


@pytest.mark.parametrize("args, want", HARDY_TABLE)
def test_hardy_constant_reference(args, want):
    assert abs(hardy_constant(*args) - want) <= 1e-13 * want


def test_hardy_constant_small_order_limit():
    assert abs(hardy_constant(3, 1e-6) - 1.0) < 1e-4


def test_symbol_at_zero_is_hardy_constant():
    for (n, g), want in HARDY_TABLE:
        params = CylinderParams(n=n, gamma=g)
        assert abs(complex(theta(params, 0, 0.0)).real - want) <= 1e-12 * want


def test_symbol_closed_form_n3_half():
    # For n=3, gamma=1/2 the mode-0 symbol collapses to xi coth(pi xi / 2).
    xi = np.linspace(0.1, 30.0, 113)
    got = theta(P35, 0, xi.astype(complex))
    want = xi / np.tanh(np.pi * xi / 2.0)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    # Imaginary axis: sigma cot(pi sigma / 2), between the axis zeros.
    sig = np.array([0.3, 0.7, 1.4, 2.5, 3.3])
    got_im = theta(P35, 0, 1j * sig)
    want_im = sig / np.tan(np.pi * sig / 2.0)
    assert np.max(np.abs(got_im - want_im)) <= 1e-12
    assert np.max(np.abs(got_im.imag)) == 0.0


def test_symbol_reference_point_mode2():
    params = CylinderParams(n=4, gamma=0.75)
    want = 4.049821239755952 + 1.7938535148302874j
    got = complex(theta(params, 2, 1 + 2j))
    assert abs(got - want) <= 1e-12 * abs(want)


def test_symbol_mode1_value_at_zero():
    # Theta_1(0) for (3, 1/2) equals pi/2: the next Hardy-type constant.
    assert abs(complex(theta(P35, 1, 0.0)).real - math.pi / 2) < 1e-13


def test_symbol_symmetries():
    rng = np.random.default_rng(20260817)
    for _ in range(100):
        z = complex(rng.uniform(-8, 8), rng.uniform(-0.9, 0.9))
        v = complex(theta(P35, 0, z))
        assert theta(P35, 0, -z) == v  # evenness is exact by construction
        assert abs(complex(theta(P35, 0, z.conjugate())) - v.conjugate()) == 0.0
    # Real on the real axis, exactly.
    assert complex(theta(P35, 0, 2.7)).imag == 0.0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    mode=st.integers(0, 3),
    re=st.floats(-50.0, 50.0),
    im=st.floats(-20.0, 20.0),
)
def test_symbol_symmetries_are_exact(n, gamma, mode, re, im):
    z = complex(re, im)
    try:
        params = CylinderParams(n=n, gamma=gamma)
        v = complex(theta(params, mode, z))
    except CylspecError:  # gamma so small that p rounds to 1, or z on a pole
        return
    assert complex(theta(params, mode, -z)) == v
    assert complex(theta(params, mode, z.conjugate())) == v.conjugate()


@pytest.mark.parametrize("n, gamma", [(2, 0.05), (2, 0.95), (3, 0.05), (3, 0.95)])
@pytest.mark.parametrize("mode", [0, 1, 4])
def test_real_axis_symbol_is_the_four_log_gamma_sum(n, gamma, mode):
    # On real z the symbol adds two real parts instead of four complex
    # log-Gammas; the value is the full conjugate-pair sum's, bit for bit.
    params = CylinderParams(n=n, gamma=gamma)
    a, b = mode_constants(params, mode)
    z = angular_frequencies(7681, 2.0**-7).astype(np.complex128)
    w = 0.5 * (0.0 + 1j * z)
    log_ratio = (
        2.0 * gamma * math.log(2.0)
        + (loggamma(a + w) + loggamma(a - w))
        - (loggamma(b + w) + loggamma(b - w))
    )
    assert np.array_equal(theta(params, mode, z), np.exp(log_ratio))


@pytest.mark.parametrize(
    "n_points, step", [(7681, 2.0**-7), (7680, 2.0**-7), (2, 0.1), (3, 0.1), (64, 1e-4)]
)
@pytest.mark.parametrize("n, gamma", [(2, 0.05), (2, 0.95), (3, 0.05), (3, 0.95)])
@pytest.mark.parametrize("mode", [0, 1, 4])
def test_lattice_symbol_is_theta_on_the_lattice(n_points, step, n, gamma, mode):
    # The half spectrum is theta on the non-negative frequencies, bit for
    # bit, for odd and even lengths, and theta on the whole lattice is real
    # and even, so the half spectrum holds all of it; at step 1e-4 the top
    # frequencies, past pi/step = 1e4 in |z|, take the far expansion.
    params = CylinderParams(n=n, gamma=gamma)
    full = theta(params, mode, angular_frequencies(n_points, step))
    lattice = theta_lattice(params, mode, n_points, step)
    half = n_points // 2 + 1
    assert lattice.dtype == np.float64 and lattice.shape == (half,)
    assert np.array_equal(full.imag, np.zeros(n_points))
    assert np.array_equal(full.real[1:], full.real[:0:-1])
    assert np.array_equal(lattice, full.real[:half])


def test_lattice_symbol_is_shared_and_read_only(cold):
    # Every caller on one lattice gets the same array, so none may write
    # into it.
    half = theta_lattice(P35, 0, 7681, 2.0**-7)
    assert theta_lattice(P35, 0, 7681, 2.0**-7) is half
    want = half.copy()
    with pytest.raises(ValueError):
        half[0] = 0.0
    with pytest.raises(ValueError):
        half *= 2.0
    assert np.array_equal(half, want)


def test_lattice_memo_is_keyed_on_what_the_symbol_depends_on(cold):
    # Theta_m depends on (n, gamma) only: the Hardy level and the
    # subcritical exponent share one array, equal to a cold evaluation.
    half = theta_lattice(P35, 1, 7681, 2.0**-7)
    hardy = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    subcritical = CylinderParams(n=3, gamma=0.5, p=1.8)
    for params in (hardy, subcritical):
        assert theta_lattice(params, 1, 7681, 2.0**-7) is half
        symbol._lattice.cache_clear()
        cold_half = theta_lattice(params, 1, 7681, 2.0**-7)
        assert np.array_equal(cold_half, half) and not cold_half.flags.writeable
        half = cold_half
    assert symbol._lattice.cache_info().currsize == 1


def test_lattice_memo_is_bounded(cold):
    size = symbol._lattice.cache_parameters()["maxsize"]
    for j in range(size + 6):
        theta_lattice(P35, 0, 16 + j, 0.1)
    assert symbol._lattice.cache_info().currsize == size


def test_symbol_axis_zeros_and_poles():
    # Denominator Gamma poles are zeros of the symbol: sigma = 2 B0 + 2k.
    assert complex(theta(P35, 0, 1j)) == 0.0
    assert complex(theta(P35, 0, 3j)) == 0.0
    # Numerator Gamma poles are symbol poles: sigma = 2 A0 + 2k.
    with pytest.raises(PoleError):
        theta(P35, 0, 2j)
    # Shifted by q0: the pole where (q0 - sigma)/2 + A0 = 0.
    sub = CylinderParams(n=3, gamma=0.5, p=1.75)
    a, _ = mode_constants(sub, 0)
    with pytest.raises(PoleError):
        theta_shifted(sub, 0, 1j * (2.0 * a + sub.q0))


def test_symbol_derivative_raises_at_symbol_poles():
    a, _ = mode_constants(P35, 0)
    for z in (2j * a, -2j * a, [1.0, 2j * a + 2j]):
        with pytest.raises(PoleError):
            theta_derivative(P35, 0, z)


def test_symbol_evaluation_tests_each_gamma_argument_once(monkeypatch):
    # One evaluation stacks its Gamma arguments: one log_gamma and one
    # digamma call, and a pole test for the denominator pair plus one in
    # each of those two calls (the numerator's).
    calls = {"log_gamma": 0, "digamma": 0, "near_pole": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(symbol, "log_gamma")
    counted(symbol, "digamma")
    counted(specfun, "near_pole")
    monkeypatch.setattr(symbol, "near_pole", specfun.near_pole)
    theta_derivative(P35, 0, 1j * np.linspace(0.05, 0.95, 13))
    assert calls["log_gamma"] == 1 and calls["digamma"] == 1
    assert calls["near_pole"] <= 3


def test_symbol_derivative_matches_finite_difference():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(25):
        z = complex(rng.uniform(-4, 4), rng.uniform(-0.8, 0.8))
        fd = (theta(P35, 0, z + h) - theta(P35, 0, z - h)) / (2 * h)
        assert abs(theta_derivative(P35, 0, z) - fd) < 5e-8 * max(1.0, abs(fd))


@pytest.mark.parametrize("j", [5, 171, 200])
def test_symbol_derivative_at_high_zeros_matches_mpmath(j):
    # Zero j of Theta_0 for (3, 1/2) sits at z = i (1 + 2j); j! alone
    # overflows a float from j = 171 on.
    a, b = mode_constants(P35, 0)

    def symbol(z):
        w = 0.5j * z
        return (
            mpmath.mpf(2) ** (2 * P35.gamma)
            * mpmath.gamma(a + w)
            * mpmath.gamma(a - w)
            * mpmath.rgamma(b + w)
            * mpmath.rgamma(b - w)
        )

    for z in (complex(0, 1 + 2 * j), complex(0, -1 - 2 * j)):
        with mpmath.workdps(40):
            want = complex(mpmath.diff(symbol, mpmath.mpc(z)))
        assert abs(theta_derivative(P35, 0, z) - want) <= 1e-12 * abs(want)
    # One batch over the zeros of every test case, a regular and a far
    # point gives the scalar calls' values, bit for bit.
    zeros = [complex(0, s * (1 + 2 * k)) for k in (5, 171, 200) for s in (1, -1)]
    zs = np.array(zeros + [0.7 + 0.3j, 2e4 - 3j])
    assert np.array_equal(theta_derivative(P35, 0, zs), [theta_derivative(P35, 0, z) for z in zs])


@pytest.mark.parametrize(
    "n, gamma, mode", [(3, 0.0159, 3), (3, 0.5, 0), (7, 0.9, 12), (2, 0.05, 0)]
)
def test_far_symbol_matches_mpmath(n, gamma, mode):
    # Its four log-Gammas cancel to eps |z| absolutely, so the direct sum
    # reads 1e-12 relative at |z| = 1e4 and 1e-6 at 3e9; past |Re z| = 1e4
    # the large-argument expansion holds to round-off, the derivative too.
    params = CylinderParams(n=n, gamma=gamma)
    a, b = mode_constants(params, mode)

    def symbol(z):
        w = 0.5j * z
        return (
            mpmath.mpf(2) ** (2 * mpmath.mpf(gamma))
            * mpmath.gamma(a + w)
            * mpmath.gamma(a - w)
            * mpmath.rgamma(b + w)
            * mpmath.rgamma(b - w)
        )

    def check(z, rel):
        with mpmath.workdps(40 + int(math.log10(abs(z)))):  # the digits of A_m + w
            want = complex(symbol(mpmath.mpc(z)))
            slope = complex(mpmath.diff(symbol, mpmath.mpc(z)))
        assert abs(theta(params, mode, z) - want) <= rel * abs(want)
        assert abs(theta_derivative(params, mode, z) - slope) <= rel * abs(slope)

    for z in (1e4, 1e4 + 30j, -2e4 - 5j, 1e5 + 1e5j, 3e6, 2874259974.316027, 1e12 + 7j):
        check(z, 1e-14)
    # w^2 would overflow here; the exponent, about 2 gamma log|z| (up to
    # 660), carries about eps times itself into the value.
    z = 1e160 - 3e159j
    check(z, 1e-15 * max(1.0, abs(math.log(abs(theta(params, mode, z))))))
    for z in (3e6, -3e6):  # exactly real on the real axis, and even
        assert complex(theta(params, mode, z)).imag == 0.0
    assert theta(params, mode, 3e6 + 2j) == theta(params, mode, -3e6 - 2j)
    assert theta(params, mode, 3e6 - 2j) == theta(params, mode, 3e6 + 2j).conjugate()


def test_shifted_symbol_reduces_to_plain_at_critical():
    rng = np.random.default_rng(31)
    params = CylinderParams(n=4, gamma=0.75)  # p defaults to critical
    assert params.is_critical and abs(params.q0) < 1e-14
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(-0.5, 0.5))
        assert abs(theta_shifted(params, 0, z) - theta(params, 0, z)) <= 1e-12 * abs(
            theta(params, 0, z)
        )


@pytest.mark.parametrize(
    "n, gamma",
    [(2, 0.05), (2, 0.5), (2, 0.95), (3, 0.05), (3, 0.5), (3, 0.95), (4, 0.3),
     (4, 0.75), (5, 0.25), (6, 0.9)],
)
def test_shifted_symbol_is_dissipative_below_critical(n, gamma):
    # Im theta_shifted(xi) < 0 for every xi > 0 on (p_lower, p_crit):
    # the sign that rules out a decaying subcritical profile, since the
    # profile equation times w' leaves int xi Im S |w^|^2 = 0.
    xi = np.geomspace(1e-6, 400.0, 400)
    base = CylinderParams(n=n, gamma=gamma)
    for frac in (0.02, 0.25, 0.5, 0.75, 0.98):
        p = base.p_lower + frac * (base.p_critical - base.p_lower)
        params = CylinderParams(n=n, gamma=gamma, p=p)
        for mode in (0, 1, 3):
            s = theta_shifted(params, mode, xi)
            assert np.all(np.isfinite(s))
            assert np.max(s.imag / xi) < 0.0, (p, mode)


@pytest.mark.parametrize("n, gamma, p", [(3, 0.5, 1.8), (4, 0.75, 1.9), (2, 0.3, 1.5)])
def test_shifted_symbol_parseval_form(n, gamma, p):
    # int (S(D) w) w' dt = (1/2 pi) int xi Im S(xi) |w^(xi)|^2 dxi for
    # S = theta_shifted(params, 0, .) and w = exp(-t^2), w^ = sqrt(pi)
    # e^{-xi^2/4}.  Left, with the exact w': numpy's complex FFT with the
    # full Hermitian symbol, and grid.multiply with its non-negative half,
    # on the composite 3841-point lattice and on the prime 7681-point one.
    # Right: quad on xi > 0, the integrand being even.  Below p_crit all
    # are negative, the sign that rules out a decaying subcritical profile.
    params = CylinderParams(n=n, gamma=gamma, p=p)
    lhs = []
    for size, step in ((3841, 2.0**-6), (7681, 2.0**-7)):
        t = -30.0 + step * np.arange(size)
        w = np.exp(-(t**2))
        s = theta_shifted(params, 0, angular_frequencies(size, step))
        for product in (np.fft.ifft(s * np.fft.fft(w)).real, multiply(s[: size // 2 + 1], w)):
            lhs.append(step * np.sum(product * (-2.0 * t * w)))
    weighted = quad(
        lambda xi: xi * theta_shifted(params, 0, xi).imag * math.pi * math.exp(-(xi**2) / 2.0),
        0.0,
        np.inf,
    )[0]
    rhs = 2.0 * weighted / (2.0 * math.pi)
    assert rhs < 0.0
    for value in lhs:
        assert value < 0.0 and abs(value - rhs) <= 1e-12 * abs(rhs)


def test_constant_A_reference():
    params = CylinderParams(n=3, gamma=0.5, p=1.75)
    # Frozen closed-form value; happens to be 1/sqrt(3).
    assert abs(constant_A(params) - 0.5773502691896258) < 1e-13
    # At the critical exponent the constant collapses to Lambda.
    crit = CylinderParams(n=3, gamma=0.5)
    assert abs(constant_A(crit) - crit.lam) < 1e-13


def test_q0_sign_and_criticality():
    assert CylinderParams(n=3, gamma=0.5, p=1.75).q0 > 0.0
    assert abs(CylinderParams(n=3, gamma=0.5, p=2.0).q0) < 1e-14
    # At the critical exponent q0 is 0 up to the rounding of p - 1, which
    # grows as gamma -> 0; these once tripped the internal check.
    for n, gamma in [(8, 0.13041967466408066), (6, 0.014474477761118017), (7, 1.8638e-4)]:
        assert abs(CylinderParams(n=n, gamma=gamma).q0) < 1e-11


def test_stability_classification():
    assert stability_classify(CylinderParams(n=3, gamma=0.5, p=1.55)) == "stable"
    assert stability_classify(CylinderParams(n=3, gamma=0.5, p=1.9)) == "unstable"
    with pytest.raises(ThresholdError):
        stability_classify(CylinderParams(n=3, gamma=0.5, p=1.6052578083751973))


P1_TABLE = [
    ((3, 0.5), 1.6052578083751973),
    ((4, 0.75), 1.7211452270158997),
]


@pytest.mark.parametrize("args, want", P1_TABLE)
def test_solve_p1_reference(args, want):
    n, g = args
    p1 = solve_p1(n, g)
    assert abs(p1 - want) < 1e-12
    assert n / (n - 2 * g) < p1 < (n + 2 * g) / (n - 2 * g)
    params = CylinderParams(n=n, gamma=g, p=p1)
    assert abs(p1 * constant_A(params) - params.lam) <= 1e-10


def test_kernel_closed_form_n3_critical():
    # (3, 1/2) at the critical exponent: K0(t) = 1 / (4 sinh^2 t).
    t = np.linspace(0.05, 6.0, 41)
    got = kernel_K0(P35, t)
    want = 1.0 / (4.0 * np.sinh(t) ** 2)
    assert np.max(np.abs(got / want - 1.0)) < 1e-12
    # Evenness at critical exponent.
    assert np.allclose(kernel_K0(P35, -t), got, rtol=1e-13)
    for ti, value in zip(t, got):
        assert kernel_K0(P35, float(ti)) == value


def test_kernel_reference_values():
    crit475 = CylinderParams(n=4, gamma=0.75)
    assert abs(kernel_K0(crit475, 0.7) - 0.28914532415356416) < 1e-12
    sub = CylinderParams(n=3, gamma=0.5, p=1.8)
    assert abs(kernel_K0(sub, -1.3) - 0.11995400008051963) < 1e-12


def test_kernel_tail_rates_subcritical():
    # Log-slopes approach (n + 2g)/2 +- q0 on the two sides.
    params = CylinderParams(n=3, gamma=0.5, p=1.8)
    rate_plus = (params.n + 2 * params.gamma) / 2.0 + params.q0
    rate_minus = (params.n + 2 * params.gamma) / 2.0 - params.q0
    t = 14.0
    slope_p = -math.log(kernel_K0(params, t + 1.0) / kernel_K0(params, t))
    slope_m = -math.log(kernel_K0(params, -(t + 1.0)) / kernel_K0(params, -t))
    assert abs(slope_p - rate_plus) < 1e-6
    assert abs(slope_m - rate_minus) < 1e-6


def _kernel_side(params, xi):
    """``C |S^(n-1)| int_R (1 - exp(-i xi t)) K0(t) dt`` on fixed Gauss-Legendre panels.

    On (0, 1], ``t = s^2`` over eight panels in ``s`` turns the integrand's
    ``t^(1 - 2g)`` at the origin into a bounded ``s^(3 - 4g)``, smooth in
    ``s`` at g = 1/2 and 3/4; beyond 1, panels of width 1/2 run until the
    slower tail has fallen by ``e^-36``.  Twenty nodes a panel.
    """
    n, g = params.n, params.gamma
    c = 4.0**g * math.gamma(n / 2 + g) / (math.pi ** (n / 2) * abs(math.gamma(-g)))
    sphere = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    x, w = np.polynomial.legendre.leggauss(20)
    s = (np.arange(8)[:, None] + (x + 1.0) / 2.0) / 8.0
    rate = (n + 2.0 * g) / 2.0 - abs(params.q0)
    start = 1.0 + 0.5 * np.arange(math.ceil(72.0 / rate))[:, None]
    t = np.concatenate([(s**2).ravel(), (start + (x + 1.0) / 4.0).ravel()])
    wt = np.concatenate([(w * s / 8.0).ravel(), np.tile(w / 4.0, start.size)])
    k_plus, k_minus = kernel_K0(params, t), kernel_K0(params, -t)
    # 1 - exp(-i xi t) at t and -t: 2 sin^2(xi t/2) on the even part, i sin(xi t) on the odd.
    even = np.sum(wt * 2.0 * np.sin(xi * t / 2.0) ** 2 * (k_plus + k_minus))
    odd = np.sum(wt * np.sin(xi * t) * (k_plus - k_minus))
    return c * sphere * complex(even, odd)


@pytest.mark.parametrize(
    "dim, gamma, p",
    [(3, 0.5, None), (3, 0.5, 1.8), (2, 0.05, None), (5, 0.25, 1.15), (4, 0.75, None)],
)
def test_kernel_symbol_identity_at_mode_0(dim, gamma, p):
    # kernel_K0's identity theta_shifted(xi) - theta_shifted(0) = C |S^(n-1)|
    # int_R (1 - e^{-i xi t}) K0(t) dt, critical and subcritical; measured
    # 2e-15 to 7e-13 relative, the largest at (4, 3/4).
    params = CylinderParams(n=dim, gamma=gamma, p=p)
    for xi in (0.5, 2.0, 6.0):
        want = theta_shifted(params, 0, xi) - theta_shifted(params, 0, 0.0)
        assert abs(_kernel_side(params, xi) - want) <= 1e-11 * abs(want)


def test_kernel_rejects_origin():
    from cylspec.errors import DomainError

    with pytest.raises(DomainError):
        kernel_K0(P35, 0.0)


def test_mode_constants_and_multiplicities():
    a0, b0 = mode_constants(P35, 0)
    assert (a0, b0) == (1.0, 0.5)
    a1, b1 = mode_constants(P35, 1)
    assert abs(a1 - 1.5) < 1e-15 and abs(b1 - 1.0) < 1e-15
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        g = float(rng.uniform(0.05, 0.95))
        if n - 2 * g <= 0:
            continue
        ell = int(rng.integers(0, 6))
        pr = CylinderParams(n=n, gamma=g)
        a, b = mode_constants(pr, ell)
        assert abs((a - b) - g) < 1e-14
        # Integer eigenvalue shortcut: the mode root is ell + (n-2)/2.
        assert abs((a + b - 1.0) - (ell + (n - 2) / 2.0)) < 1e-12
    assert [ModeIndex.of(3, ell).multiplicity for ell in range(4)] == [1, 3, 5, 7]
    assert [ModeIndex.of(4, ell).multiplicity for ell in range(4)] == [1, 4, 9, 16]
    assert [ModeIndex.of(2, ell).multiplicity for ell in range(3)] == [1, 2, 2]


def test_parameter_validation():
    with pytest.raises(ValidationError):
        CylinderParams(n=1, gamma=0.5)
    with pytest.raises(ValidationError):
        CylinderParams(n=3, gamma=1.5)
    with pytest.raises(ValidationError):
        CylinderParams(n=2, gamma=0.5, p=5.0)  # above critical
    with pytest.raises(ValidationError):
        CylinderParams(n=3, gamma=0.5, p=1.2)  # below lower endpoint
    with pytest.raises(ValidationError):
        CylinderParams(n=3, gamma=0.5, kappa=-0.1)
    with pytest.raises(ValidationError):
        ModeIndex.of(3, -1)
