"""Special-function layer: frozen high-precision references and identities."""

import math

import mpmath
import numpy as np
import pytest

from cylspec.errors import DomainError, PoleError, ValidationError
from cylspec.specfun import digamma, hyp2f1, log_gamma, polygamma

EULER_GAMMA = 0.5772156649015328606065120900824024310422

# Reference values frozen from a 40-digit arbitrary-precision evaluation,
# rounded to double precision.
LOG_GAMMA_TABLE = [
    (1 + 1j, -0.6509231993018563 - 0.3016403204675332j),
    (-3.5 + 2j, -6.420091394575658 - 9.711907658196487j),
    (0.5 - 9j, -13.218228407949397 - 10.779654172897255j),
    (20 + 13j, 35.281824045827104 + 39.47263590040642j),
]

DIGAMMA_TABLE = [
    (1.0 + 0j, -EULER_GAMMA + 0j),
    (0.5 + 0j, -1.9635100260214235 + 0j),
    (1 + 1j, 0.09465032062247698 + 1.0766740474685812j),
    (-2.5 + 0.5j, 1.1165080219699073 + 2.7175825969005915j),
]

HYP2F1_TABLE = [
    # (a, b, c, x, value)
    ((2.0, 1.5, 1.5, 0.9), 100.00000000000004),
    ((2.75, 1.75, 2.0, 0.3), 2.3694814435050604),
    ((2.75, 1.75, 2.0, 0.97), 5790.533432058619),
    ((1.25, 0.5, 1.5, 0.999), 10.051838371453295),
    ((2.0, 1.5, 2.5, 0.98), 72.44240002823457),
    ((1.5, 1.0, 2.5, 0.5), 1.4787028816827662),
]


@pytest.mark.parametrize("z, want", LOG_GAMMA_TABLE)
def test_log_gamma_reference_values(z, want):
    got = log_gamma(z)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("z, want", DIGAMMA_TABLE)
def test_digamma_reference_values(z, want):
    got = digamma(z)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_log_gamma_half_integer():
    assert abs(log_gamma(0.5 + 0j) - math.log(math.sqrt(math.pi))) < 1e-14


def _strip_points(count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        k = round(z.real)
        if k <= 0 and abs(z - k) < 1e-3:
            continue
        if abs(z.imag) < 1e-3 and z.real < 0.5:
            continue  # keep clear of the pole line for the recurrence ratio
        pts.append(z)
    return pts


def test_gamma_recurrence_on_strip():
    # Gamma(z+1) = z Gamma(z), checked multiplicatively at 1000 points.
    for z in _strip_points(1000, seed=20260817):
        ratio = np.exp(log_gamma(z + 1) - log_gamma(z)) / z
        assert abs(ratio - 1.0) < 1e-12


def test_conjugate_symmetry():
    for z in _strip_points(200, seed=7):
        assert abs(log_gamma(np.conj(z)) - np.conj(log_gamma(z))) < 1e-12 * max(
            1.0, abs(log_gamma(z))
        )
        assert abs(digamma(np.conj(z)) - np.conj(digamma(z))) < 1e-12 * max(
            1.0, abs(digamma(z))
        )


def test_digamma_matches_log_gamma_difference():
    h = 1e-5
    for z in _strip_points(200, seed=11):
        fd = (log_gamma(z + h) - log_gamma(z - h)) / (2 * h)
        assert abs(digamma(z) - fd) < 1e-6 * max(1.0, abs(fd))


def _negative_axis_points(count, seed):
    # Root search on the imaginary axis of the symbol evaluates the Gamma
    # functions at a - sigma/2, down the negative real axis.
    rng = np.random.default_rng(seed)
    return [complex(0.75 - s / 2.0, 0.0) for s in rng.uniform(0.0, 60.0, count)]


@pytest.mark.parametrize(
    "fun, ref", [(log_gamma, mpmath.loggamma), (digamma, mpmath.digamma)]
)
def test_gamma_functions_match_mpmath(fun, ref):
    for z in _strip_points(200, seed=23) + _negative_axis_points(100, seed=29):
        with mpmath.workdps(40):
            want = complex(ref(z))
        assert abs(fun(z) - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("k", [1, 3])
def test_polygamma_matches_mpmath(k):
    # The mode constants A_m, B_m: positive reals from about 0.03 upward.
    for x in np.geomspace(0.03, 60.0, 40):
        with mpmath.workdps(40):
            want = float(mpmath.polygamma(k, x))
        assert abs(polygamma(k, x) - want) <= 1e-14 * abs(want)
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValidationError):
            polygamma(k, bad)


def test_vectorized_matches_scalar():
    pts = np.array(_strip_points(64, seed=3) + _negative_axis_points(16, seed=5))
    lg = log_gamma(pts)
    dg = digamma(pts)
    for i, z in enumerate(pts):
        assert lg[i] == log_gamma(complex(z))
        assert dg[i] == digamma(complex(z))
    # A stack of arguments, as the symbol passes them, gives each row's
    # 1-d values.
    rows = pts.reshape(4, -1)
    for fun in (log_gamma, digamma):
        stacked = fun(rows)
        assert stacked.shape == rows.shape
        for row, got in zip(rows, stacked):
            assert np.array_equal(got, fun(row))
    xs = np.linspace(-0.9, 1.0 - 1e-4, 41)
    vals = hyp2f1(2.75, 1.75, 2.0, xs)
    for x, v in zip(xs, vals):
        assert v == hyp2f1(2.75, 1.75, 2.0, float(x))


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 1e-15j])
def test_pole_rejection(z):
    with pytest.raises(PoleError):
        log_gamma(z)
    with pytest.raises(PoleError):
        digamma(z)


def test_nonfinite_rejection():
    with pytest.raises(ValidationError):
        log_gamma(complex("nan"))
    with pytest.raises(ValidationError):
        digamma(complex("inf"))


@pytest.mark.parametrize("args, want", HYP2F1_TABLE)
def test_hyp2f1_reference_values(args, want):
    got = hyp2f1(*args)
    assert abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("n", range(2, 9))
def test_hyp2f1_kernel_families_match_mpmath(n):
    # The K0 family ((n+2g)/2, 1+g; n/2) and the Riesz family
    # (n/2-g, 1-g; n/2); g = 0.5 makes c - a - b an integer in both,
    # where the 1 - x connection formula degenerates.
    xs = np.array([-0.9, -0.3, 0.3, 0.7, 0.9, 0.99, 0.999, 1.0 - 1e-4])
    for g in (0.05, 0.25, 0.5, 0.75, 0.95):
        for a, b, c in (((n + 2 * g) / 2, 1 + g, n / 2), (n / 2 - g, 1 - g, n / 2)):
            got = hyp2f1(a, b, c, xs)
            with mpmath.workdps(40):
                want = [float(mpmath.hyp2f1(a, b, c, x)) for x in xs]
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_hyp2f1_at_zero():
    assert hyp2f1(1.7, 2.9, 0.4, 0.0) == 1.0


def _taylor_oracle(a, b, c, x, terms=2000):
    # Independent brute-force check: exact compensated sum via fsum.
    vals = []
    term = 1.0
    for k in range(terms):
        vals.append(term)
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
    return math.fsum(vals)

def test_hyp2f1_against_taylor_oracle():
    rng = np.random.default_rng(99)
    for _ in range(60):
        a = rng.uniform(0.1, 4.0)
        b = rng.uniform(0.1, 4.0)
        c = rng.uniform(0.3, 4.0)
        x = rng.uniform(-0.5, 0.5)
        want = _taylor_oracle(a, b, c, x)
        assert abs(hyp2f1(a, b, c, x) - want) <= 1e-9 * max(1.0, abs(want))


def test_hyp2f1_terminating_polynomial():
    # a = -3 gives a cubic; exact evaluation.
    a, b, c, x = -3.0, 2.0, 1.5, 0.8
    want = _taylor_oracle(a, b, c, x, terms=8)
    assert abs(hyp2f1(a, b, c, x) - want) < 1e-14 * abs(want)


def test_hyp2f1_domain_and_pole_errors():
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 3.0, -1.2)
    with pytest.raises(DomainError):
        hyp2f1(1.0, 2.0, 3.0, np.array([0.5, 1.0]))
    with pytest.raises(ValidationError):
        hyp2f1(1.0, 2.0, 3.0, np.array([0.5, np.nan]))
    with pytest.raises(PoleError):
        hyp2f1(1.0, 2.0, -2.0, 0.3)
