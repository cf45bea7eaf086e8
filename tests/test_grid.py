"""Grid container: lattice invariants, decay checks, round-trips."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve as scipy_fftconvolve

from cylspec.errors import (
    DecayHypothesisError,
    GridMismatchError,
    ValidationError,
    WindowError,
)
from cylspec.grid import (
    GridFunction,
    angular_frequencies,
    fftconvolve,
    multiply,
    real_circulant,
    tail_mask,
    tail_rate,
    trapezoid,
)
from cylspec.symbol import CylinderParams, theta


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
        a + b


def test_arithmetic_and_trapz():
    g = _gaussian(t_max=12.0, step=0.01)
    diff = 2.0 * g - g
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


def test_json_round_trip_with_metadata(tmp_path):
    g = _gaussian(t_max=4.0, step=0.5)
    path = tmp_path / "g.json"
    g.to_json(path, metadata={"kind": "test", "kappa": 0.3})
    back, meta = GridFunction.from_json(path)
    assert back.same_grid(g)
    assert np.array_equal(back.samples, g.samples)
    assert meta == {"kind": "test", "kappa": 0.3}


@pytest.mark.parametrize("n", [7, 481, 7681])
def test_fftconvolve_matches_scipy_signal_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(2 * n - 1)
    b = rng.standard_normal(n)
    assert fftconvolve(a, b).dtype == np.float64
    assert np.array_equal(fftconvolve(a, b), scipy_fftconvolve(a, b))


@pytest.mark.parametrize("n", [7, 481, 7680, 7681])
def test_real_circulant_matches_multiply(n):
    rng = np.random.default_rng(n)
    symbol = theta(CylinderParams(n=4, gamma=0.75), 0, angular_frequencies(n, 2.0**-7))
    v = rng.standard_normal(n)
    for values in (symbol.real, rng.standard_normal(n)):
        fast = real_circulant(values)(v)
        exact = multiply(values, v).real
        scale = np.finfo(float).eps * np.max(np.abs(values)) * np.max(np.abs(v))
        assert np.max(np.abs(fast - exact)) <= 8.0 * scale


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
