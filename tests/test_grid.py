"""Grid container: lattice invariants, decay checks, round-trips."""

import json
import math

import mpmath
import numpy as np
import pytest
import scipy.fft
from scipy.signal import fftconvolve as scipy_fftconvolve

from cylspec.errors import (
    DecayHypothesisError,
    GridMismatchError,
    ValidationError,
    WindowError,
)
from cylspec.greens import (
    apply_symbol,
    build_greens,
    component_solutions,
    solve_convolution,
    solve_ode_system,
)
from cylspec import grid
from cylspec.grid import (
    GridFunction,
    angular_frequencies,
    fftconvolve,
    multiply,
    tail_mask,
    tail_rate,
    trapezoid,
)
from cylspec.identities import wronskian, wronskian_defect
from cylspec.nonlinear import solve_profile
from cylspec.profiles import bubble, cylinder_constant
from cylspec.symbol import CylinderParams, theta_lattice, theta_shifted


def _gaussian(t_max=10.0, step=0.125):
    return GridFunction.from_callable(
        lambda t: np.exp(-(t**2)) + 0j, t_min=-t_max, t_max=t_max, step=step
    )


def test_lattice_invariant():
    with pytest.raises(ValidationError):
        GridFunction(t_min=0.0, t_max=1.0, step=0.25, samples=np.zeros(4))
    g = GridFunction(t_min=0.0, t_max=1.0, step=0.25, samples=np.zeros(5))
    assert g.n_points == 5
    assert np.allclose(g.t, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_samples_are_immutable():
    g = _gaussian()
    with pytest.raises(ValueError):
        g.samples[0] = 1.0


def test_equality_and_hash_go_by_identity():
    # Equal samples on one lattice are still two objects: == is identity
    # (it used to raise on comparing the sample arrays), and hash() works.
    g, h = _gaussian(), _gaussian()
    assert np.array_equal(g.samples, h.samples)
    assert g == g and not g == h and g != h
    assert hash(g) == hash(g) and len({g, h, g}) == 2
    assert g.with_samples(g.samples) != g


def test_decay_check():
    _gaussian().require_decay(1e-10)
    narrow = GridFunction.from_callable(
        lambda t: np.exp(-np.abs(t)), t_min=-3, t_max=3, step=0.25
    )
    with pytest.raises(WindowError):
        narrow.require_decay(1e-10)
    assert GridFunction(0.0, 1.0, 0.5, np.zeros(3)).decay_margin() == 0.0


def test_grid_mismatch():
    a = _gaussian(step=0.125)
    b = _gaussian(step=0.25)
    with pytest.raises(GridMismatchError):
        a.require_same_grid(b)


def test_arithmetic_and_trapz():
    g = _gaussian(t_max=12.0, step=0.01)
    diff = g.with_samples(2.0 * g.samples - g.samples)
    total = trapezoid(diff.samples, diff.step)
    assert abs(total - np.sqrt(np.pi)) < 1e-12  # integral of exp(-t^2)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(129) + 1j * rng.standard_normal(129)
    g = GridFunction(t_min=-2.0, t_max=2.0, step=2.0**-5, samples=vals)
    path = tmp_path / "g.csv"
    g.to_csv(path)
    back = GridFunction.from_csv(path)
    assert back.same_grid(g)
    assert np.array_equal(back.samples, g.samples)


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,z\n0,1,2\n1,3,4\n")
    with pytest.raises(ValidationError):
        GridFunction.from_csv(path)


@pytest.mark.parametrize(
    "text",
    [
        b"t,re,im\n0,1,0\n0.5,abc,0\n1,3,0\n",
        b"t,re,im\n0,1,0\n0.5,2\n1,3,0\n",
        b"t,re,im\n0,1,0\n0.1,2,0\n0.5,3,0\n1.0,4,0\n",
        b"\xff\xfet,re,im\n0,1,0\n1,3,0\n",
    ],
    ids=["non-numeric", "missing-column", "non-uniform", "not-utf-8"],
)
def test_malformed_csv_lattice_files_are_rejected(tmp_path, text):
    # The non-uniform t column would otherwise load as 0, 1/3, 2/3, 1.
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    with pytest.raises(ValidationError):
        GridFunction.from_csv(path)


def test_malformed_json_lattice_files_are_rejected(tmp_path):
    doc = _gaussian(t_max=4.0, step=0.5).json_doc({})
    path = tmp_path / "bad.json"
    for key in ("grid", "re", "im"):
        path.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        with pytest.raises(ValidationError):
            GridFunction.from_json(path)
    for text in (
        "{",
        json.dumps({**doc, "grid": {**doc["grid"], "t_min": "a"}}),
        json.dumps({**doc, "im": [5.0]}),  # would broadcast to every sample
    ):
        path.write_text(text)
        with pytest.raises(ValidationError):
            GridFunction.from_json(path)


def test_json_round_trip_with_metadata(tmp_path):
    g = _gaussian(t_max=4.0, step=0.5)
    path = tmp_path / "g.json"
    g.to_json(path, metadata={"kind": "test", "kappa": 0.3})
    back, meta = GridFunction.from_json(path)
    assert back.same_grid(g)
    assert np.array_equal(back.samples, g.samples)
    assert meta == {"kind": "test", "kappa": 0.3}


@pytest.mark.parametrize("n", [7, 481, 7681])
def test_fftconvolve_is_the_window_of_the_linear_convolution(n):
    # A kernel on the lags -(n-1) .. n-1, stored cyclically at any length
    # L >= 2n - 1, odd or even, gives scipy.signal's linear convolution on
    # the window [n-1, 2n-1) to round-off.  At L = 2n - 2 the lag -(n-1)
    # lands on n-1, and the window is off by far more.
    rng = np.random.default_rng(n)
    a = rng.standard_normal(2 * n - 1)
    b = rng.standard_normal(n)
    want = scipy_fftconvolve(a, b)[n - 1 : 2 * n - 1]
    for length in (2 * n - 2, 2 * n - 1, 2 * n, scipy.fft.next_fast_len(2 * n - 1, real=True)):
        kernel = np.zeros(length)
        kernel[:n] = a[n - 1 :]
        kernel[length - n + 1 :] += a[: n - 1]
        got = fftconvolve(scipy.fft.rfft(kernel), b, length)
        assert got.dtype == np.float64 and got.size == n
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err > 1e-3 if length < 2 * n - 1 else err <= 1e-14, length


def _mirrored(half, n):
    """A half spectrum laid out on the whole lattice in FFT order, ``S(-xi) = conj S(xi)``."""
    return np.concatenate([half, half[(n - 1) // 2 : 0 : -1].conj()])


def _shifted_half(n, step):
    """The Hermitian ``theta_shifted`` at (3, 0.5), p 1.8, on the non-negative
    frequencies of an odd n-point lattice."""
    xi = angular_frequencies(n, step)[: n // 2 + 1]
    return theta_shifted(CylinderParams(n=3, gamma=0.5, p=1.8), 0, xi)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [2, 3, 7, 481, 7680, 7681, 15361])
def test_multiply_matches_complex_transform(n, dtype):
    # The real product of a half spectrum is the complex product of the
    # mirrored symbol, up to a transform's round-off, for real and for
    # complex data; at odd n for a complex Hermitian half spectrum too.
    rng = np.random.default_rng(n)
    halves = [theta_lattice(CylinderParams(n=4, gamma=0.75), 0, n, 2.0**-7)]
    if n % 2:
        halves.append(_shifted_half(n, 2.0**-7))
    v = rng.standard_normal(n)
    if dtype is np.complex128:
        v = v + 1j * rng.standard_normal(n)
    for half in halves:
        got = multiply(half, v)
        want = np.fft.ifft(np.fft.fft(v) * _mirrored(half, n))
        assert got.dtype == dtype and got.shape == (n,)
        scale = np.finfo(float).eps * np.max(np.abs(half)) * np.max(np.abs(v))
        assert np.max(np.abs(got - want)) <= 8.0 * scale


def test_multiply_rejects_a_complex_half_spectrum_at_even_n():
    # irfft would drop Im S at the Nyquist bin, where theta_shifted at
    # (3, 0.5), p 1.8 on 7680 points has Im S = -0.25.
    n, step = 7680, 2.0**-7
    xi = angular_frequencies(n, step)[: n // 2 + 1]
    half = theta_shifted(CylinderParams(n=3, gamma=0.5, p=1.8), 0, xi)
    assert half[-1].imag != 0.0
    with pytest.raises(ValidationError):
        multiply(half, np.ones(n))


def _dft_multiply(half, v):
    """``multiply(half, v)`` at odd ``n``: the mirrored symbol's circulant kernel
    by a 30-digit DFT, rounded to 2^-100 and applied in integer arithmetic.  The
    kernel is ``(S_0 + 2 sum_k Re S_k cos(2 pi jk/n) - Im S_k sin(2 pi jk/n))/n``,
    so a complex ``half`` is taken as Hermitian."""
    n = v.size
    with mpmath.workdps(30):
        cos = [mpmath.cospi(mpmath.mpf(2 * j) / n) for j in range(n)]
        sin = [mpmath.sinpi(mpmath.mpf(2 * j) / n) for j in range(n)]
        re, im = ([mpmath.mpf(float(s)) for s in part] for part in (half.real, half.imag))
        ks = range(1, n // 2 + 1)
        kernel = [
            (re[0] + 2 * mpmath.fdot(re[1:], [cos[j * k % n] for k in ks])
             - 2 * mpmath.fdot(im[1:], [sin[j * k % n] for k in ks])) / n
            for j in range(n)
        ]
        kernel = [int(mpmath.nint(c * 2**100)) for c in kernel]
    lags = np.array([kernel[j::-1] + kernel[:j:-1] for j in range(n)], dtype=object)  # j - l
    out = []
    for part in (v.real, v.imag):
        ints = np.array([int(x * 2.0**80) for x in part], dtype=object)  # exact to 2^-80
        out.append([y / 2**180 for y in lags.dot(ints)])
    return np.array(out[0]) + 1j * np.array(out[1])


@pytest.mark.parametrize("n", [3, 5, 7, 13, 61, 241, 9, 121, 481])
def test_multiply_matches_a_30_digit_dft(n):
    # scipy's real transforms, Bluestein's at the primes, are within a few
    # round-offs of the exact product, on even, asymmetric and complex
    # data, for a real even and a complex Hermitian half spectrum.
    rng = np.random.default_rng(n)
    real = theta_lattice(CylinderParams(n=4, gamma=0.75), 0, n, 2.0**-7)
    halves = (real, _shifted_half(n, 2.0**-7))
    v = rng.standard_normal(n)
    for data in (v + v[::-1], v, v + 1j * rng.standard_normal(n)):
        for half in halves:
            got = multiply(half, data)
            scale = np.finfo(float).eps * np.max(np.abs(half)) * np.max(np.abs(data))
            assert got.dtype == data.dtype
            assert np.max(np.abs(got - _dft_multiply(half, data))) <= 4.0 * scale


def _long_double_even_multiply(half, v):
    """``multiply(half, v)`` on even ``v``, in the even :class:`grid.Sector`'s natural order:
    the cosine transform there and back as long-double sums, with the cosines
    of ``2 pi r/n`` from one table."""
    n, ld = v.size, np.longdouble
    cos = np.cos(2 * ld("3.14159265358979323846264338327950288") / n * np.arange(n))
    k = np.arange(n // 2 + 1)

    def transform(x):  # x_0 + 2 sum_k x_k cos(2 pi jk/n), 512 rows at a time
        x = x * np.where(k == 0, 1, 2).astype(ld)
        rows = [np.arange(j, min(j + 512, k.size))[:, None] for j in range(0, k.size, 512)]
        return np.concatenate([(cos[j * k % n] * x).sum(axis=1) for j in rows])

    return transform(half.astype(ld) * transform(v[n // 2 :].astype(ld))) / n


@pytest.mark.parametrize("n", [3, 5, 13, 121, 241, 3841, 7681])
def test_multiply_folded_matches_an_extended_precision_dft(n):
    # The product on the even sector: Rader's order at the
    # primes, the natural one at 121 and 3841.  Up to 241 against the
    # 30-digit DFT; beyond, where that takes minutes, against long-double
    # sums, themselves checked against the 30-digit DFT at 241.  (The
    # 30-digit values are rounded to double, so they differ by up to half
    # an ulp.)
    half = theta_lattice(CylinderParams(n=4, gamma=0.75), 0, n, 2.0**-7)
    v = np.random.default_rng(n).standard_normal(n)
    v = v + v[::-1]
    sector = grid.Sector(n, True)
    got = sector.extend(sector.apply(sector.spectrum(half), sector.restrict(v)))
    scale = np.finfo(float).eps * np.max(np.abs(half)) * np.max(np.abs(v))
    if n <= 241:
        want = _dft_multiply(half, v).real
        assert np.max(np.abs(got - want)) <= 4.0 * scale
    if n >= 241:
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        ld = _long_double_even_multiply(half, v)
        if n == 241:  # within a twentieth of an ulp of the rounded 30-digit values
            want = want[n // 2 :]
            assert np.all(np.abs(ld - want) <= 0.55 * np.spacing(np.abs(want)))
        assert float(np.max(np.abs(got[n // 2 :] - ld))) <= 4.0 * scale


@pytest.mark.parametrize("n", [3, 4, 5, 9, 13, 121, 241, 3841, 7680, 7681, 15361])
def test_folded_product_is_multiply_on_even_vectors(n):
    # Off the primes the even sector's product is multiply's stored
    # samples, bit for bit; at the primes Rader's map and Bluestein's
    # transforms agree to round-off.  The full lattice's is multiply.
    half = theta_lattice(CylinderParams(n=3, gamma=0.5), 0, n, 2.0**-7)
    v = np.random.default_rng(n).standard_normal(n)
    v = v + v[::-1]
    sector = grid.Sector(n, True)
    got = sector.apply(sector.spectrum(half), sector.restrict(v))
    full = multiply(half, v)
    assert np.array_equal(grid.Sector(n, False).apply(half, v), full)
    if grid._rader_plan(n)[2] is None:
        assert np.array_equal(got, full[n // 2 :])
    else:
        scale = np.finfo(float).eps * np.max(np.abs(half)) * np.max(np.abs(v))
        assert np.max(np.abs(sector.extend(got) - full)) <= 4.0 * scale


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 13, 7680, 7681])
def test_fold_round_trip_is_exact(n):
    # An even vector and its stored samples map to each other exactly, and
    # the weighted norm of the samples is the vector's 2-norm.  On the full
    # lattice every vector is stored as it is, with unit weights.
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n)
    v = v + v[::-1]
    sector = grid.Sector(n, True)
    f = sector.restrict(v)
    assert f.size == (n + 1) // 2
    assert np.array_equal(sector.extend(f), v)
    weight, norm = sector.weights()
    got = norm * np.linalg.norm(weight * f)
    assert abs(got - np.linalg.norm(v)) <= 4.0 * np.finfo(float).eps * np.linalg.norm(v)
    f = rng.standard_normal((n + 1) // 2)
    assert np.array_equal(sector.restrict(sector.extend(f)), f)
    full, v = grid.Sector(n, False), rng.standard_normal(n)
    assert np.array_equal(full.restrict(v), v) and np.array_equal(full.extend(v), v)
    weight, norm = full.weights()
    assert norm * np.linalg.norm(weight * full.restrict(v)) == np.linalg.norm(v)


@pytest.mark.parametrize(
    "dim, gamma, step",
    [(3, 0.5, 2.0**-7), (4, 0.75, 2.0**-7), (4, 0.75, 2.0**-8), (2, 0.95, 2.0**-8)],
)
def test_multiply_round_trip_keeps_decaying_tails(dim, gamma, step):
    # Round-off that reaches the low frequencies would stay in the
    # decaying tails, where the tail-rate checks read it: a fast-length
    # circulant built on the kernel irfft(half, n) read 200 eps to 1.4e7 eps
    # here, the exact product 2 to 12 eps.  The same holds through 1/S for
    # the Hermitian shifted symbol S halfway between p_lower and p_crit.
    v = GridFunction.from_callable(lambda t: np.zeros_like(t), step=step)
    params = CylinderParams(n=dim, gamma=gamma)
    shifted = CylinderParams(n=dim, gamma=gamma, p=0.5 * (params.p_lower + params.p_critical))
    xi = angular_frequencies(v.n_points, step)[: v.n_points // 2 + 1]
    for half in (theta_lattice(params, 0, v.n_points, step), theta_shifted(shifted, 0, xi)):
        for samples in (1.0 / np.cosh(v.t) ** 2, np.exp(-((v.t - 1.0) ** 2))):
            back = multiply(1.0 / half, multiply(half, samples))
            assert np.max(np.abs(back - samples)) <= 16.0 * np.finfo(float).eps * np.max(samples)


def test_rader_plan_only_at_odd_primes(cold):
    # Every size has the even sector's layout; no kernel off the odd primes.
    for n in (1, 2, 9, 121, 481, 7680):
        index, bins, cos_in, cos_out = grid._rader_plan(n)
        assert cos_in is None and cos_out is None
        assert np.array_equal(index, n // 2 + np.arange((n + 1) // 2))
        assert np.array_equal(bins, np.arange(n // 2 + 1))
        assert not (index.flags.writeable or bins.flags.writeable)
    index, bins, cos_in, cos_out = grid._rader_plan(7681)
    assert index[0] == 3840  # the centre, then every offset or its mirror once
    assert np.array_equal(np.sort(np.concatenate([index, 7680 - index[1:]])), np.arange(7681))
    assert np.array_equal(np.unique(bins), np.arange(3841))
    assert cos_in.size == 3840 // 2 + 1 and np.array_equal(cos_in, cos_out.conj())
    assert not any(a.flags.writeable for a in (index, bins, cos_in, cos_out))


def test_unit_circle_is_correctly_reduced():
    # Within an ulp over a whole turn; np.cos(2 pi k/n) is up to 1.0e-15 off.
    n = 7681
    cos = grid._unit_circle(np.arange(n), n)
    with mpmath.workdps(30):
        want = [float(mpmath.cospi(mpmath.mpf(2 * k) / n)) for k in range(n)]
    assert np.max(np.abs(cos - want)) <= np.finfo(float).eps


def test_tail_mask():
    t = np.linspace(-30.0, 30.0, 7681)
    samples = np.exp(-2.0 * np.abs(t - 1.0))
    sel, rel = tail_mask(samples)
    assert rel.max() == 1.0
    picked = t[sel]
    # right of the peak at t = 1, from below 1e-3 (t > 1 + ln(1e3)/2) to above 1e-13
    assert np.all(picked > 1.0 + 0.5 * math.log(1e3))
    assert np.all(picked < 1.0 + 0.5 * math.log(1e13))
    assert picked.size == np.count_nonzero((t > 1.0) & (rel < 1e-3) & (rel > 1e-13))


def test_tail_rate():
    t = np.linspace(-30.0, 30.0, 7681)
    assert abs(tail_rate(np.exp(-2.0 * np.abs(t)) + 0j, t) - 2.0) < 1e-9
    # A tail that drops through the band in under 8 samples is numerically zero.
    coarse = np.linspace(-30.0, 30.0, 61)
    assert tail_rate(np.exp(-coarse * coarse), coarse) == math.inf
    # A tail that never falls to 1e-3 of the peak cannot be measured.
    with pytest.raises(DecayHypothesisError):
        tail_rate(np.exp(-0.1 * np.abs(t)), t)


def test_tail_rate_oscillating_and_one_signed():
    t = np.linspace(-30.0, 30.0, 7681)
    # Criterion 12's planted wave: fitted at the maxima of |w|, not at its zeros.
    wave = np.exp(-0.9 * np.abs(t)) * np.cos(2.3 * np.abs(t) + 0.4)
    assert abs(tail_rate(wave, t) - 0.9) < 1e-3
    assert tail_rate(wave + 0j, t) == tail_rate(wave, t)
    # A tail of one sign keeps the fit over every tail sample, bit for bit.
    positive = 1.0 / np.cosh(1.5 * t) ** 1.5
    sel, _ = tail_mask(positive)
    assert tail_rate(positive, t) == -np.polyfit(t[sel], np.log(positive[sel]), 1)[0]



_DT = 2.0**-5
_H = GridFunction.from_callable(lambda t: np.exp(-((t - 1.0) ** 2)), -30.0, 30.0, _DT)
_H2 = GridFunction.from_callable(lambda t: np.exp(-((t + 2.0) ** 2) / 2.0), -30.0, 30.0, _DT)
_TURNED = _H.with_samples(_H.samples * (1.0 + 1e-3j))


def _series(kappa):
    return build_greens(CylinderParams(n=3, gamma=0.5, kappa=kappa), 0, 8)


def _csv_round_trip(g, tmp_path):
    g.to_csv(tmp_path / "g.csv")
    return GridFunction.from_csv(tmp_path / "g.csv").samples


def _json_round_trip(g, tmp_path):
    g.to_json(tmp_path / "g.json")
    return GridFunction.from_json(tmp_path / "g.json")[0].samples


def _identity(fn):
    series = _series(0.3)
    w, w2 = solve_convolution(series, _H), solve_convolution(series, _H2)
    return fn(series, w, w2, _H, _H2).samples


def _profile():
    params = CylinderParams(n=3, gamma=0.5)
    guess = _H.with_samples(cylinder_constant(params) * bubble(params, _H.t))
    return solve_profile(params, guess).solution.samples


# id: (samples of one computation, given a scratch directory; expected dtype)
_DTYPE_CASES = {
    "from_callable": (lambda _: _H.samples, np.float64),
    "csv_round_trip": (lambda p: _csv_round_trip(_H, p), np.float64),
    "json_round_trip": (lambda p: _json_round_trip(_H, p), np.float64),
    "with_samples_zero_imag": (lambda _: _H.with_samples(_H.samples - 0j).samples, np.float64),
    "solve_convolution": (lambda _: solve_convolution(_series(0.3), _H).samples, np.float64),
    "solve_ode_system": (lambda _: solve_ode_system(_series(0.3), _H).samples, np.float64),
    "components_stable": (lambda _: component_solutions(_series(0.3), _H), np.float64),
    "components_unstable": (lambda _: component_solutions(_series(0.8), _H), np.float64),
    "apply_symbol": (
        lambda _: apply_symbol(CylinderParams(n=3, gamma=0.5), 0, _H).samples, np.float64
    ),
    "wronskian": (lambda _: _identity(wronskian), np.float64),
    "wronskian_defect": (lambda _: _identity(wronskian_defect), np.float64),
    "solve_profile": (lambda _: _profile(), np.float64),
    "complex_from_callable": (lambda _: _TURNED.samples, np.complex128),
    "complex_csv_round_trip": (lambda p: _csv_round_trip(_TURNED, p), np.complex128),
    "complex_json_round_trip": (lambda p: _json_round_trip(_TURNED, p), np.complex128),
    "complex_solve_convolution": (
        lambda _: solve_convolution(_series(0.3), _TURNED).samples, np.complex128
    ),
    "complex_components": (
        lambda _: component_solutions(_series(0.3), _TURNED), np.complex128
    ),
}


@pytest.mark.parametrize("case", list(_DTYPE_CASES))
def test_samples_are_real_unless_complex(case, tmp_path):
    # The grid decides real or complex once: real data is float64 through
    # every computation, and only a nonzero imaginary part makes samples
    # complex128.
    samples, dtype = _DTYPE_CASES[case]
    assert samples(tmp_path).dtype == dtype
