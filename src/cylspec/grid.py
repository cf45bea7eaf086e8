"""Uniform sample grids on a symmetric time window, with serialization.

Everything downstream works on functions sampled uniformly on
``[t_min, t_max]``.  The container is immutable, checks the lattice
invariant ``(t_max - t_min)/step + 1 == len(samples)``, and knows how to
verify the window-decay hypothesis that convolution and spectral
routines rely on.  It decides real or complex once: samples are float64
unless some imaginary part is nonzero.  Serialization is CSV (columns
``t,re,im``, 17 significant digits, bit-exact for binary64 values, LF
line ends) and JSON with a metadata block.  The lattice's numerics live
here too, one routine each: Fourier multiplier, FFT convolution,
trapezoid rule and tail decay-rate fit.  The multiplier :func:`multiply`
applies a symbol given on the non-negative frequencies, real and even as
:func:`~cylspec.symbol.theta_lattice` returns it or Hermitian, by
``scipy.fft``'s real transforms at ``n``, exactly to a transform's
round-off, so residuals, Krylov products and anything whose tails are read
share it.  A solve stores its vectors in a :class:`Sector`: the full
lattice, or the even vectors as their ``(n + 1)//2`` independent samples,
multiplied by Rader's map at an odd prime size.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DecayHypothesisError, GridMismatchError, ValidationError, WindowError

__all__ = ["GridFunction", "DEFAULT_T_MAX", "DEFAULT_STEP"]

DEFAULT_T_MAX = 30.0
DEFAULT_STEP = 2.0**-7

FLOAT_FORMAT = "%.17g"  # round-trips binary64
_CSV_HEADER = ("t", "re", "im")


def angular_frequencies(n, step):
    """Angular frequencies ``2 pi k / (n step)`` of an n-point lattice, in FFT order."""
    return 2.0 * math.pi * np.fft.fftfreq(n, d=step)


def multiply(half, v):
    """Fourier multiplier ``irfft(rfft(v) * half, n)`` on the periodized n-point lattice.

    ``half`` holds a symbol on the non-negative frequencies of
    :func:`angular_frequencies`: real and even, as
    :func:`~cylspec.symbol.theta_lattice` returns it, or at odd ``n``
    complex with ``S(-xi) = conj S(xi)``, as
    :func:`~cylspec.symbol.theta_shifted` is.  Either is a real circulant,
    so real ``v`` gives a real result and complex ``v`` the products of
    its two parts.  It is the lattice's one multiplier, exact to a
    transform's round-off, for residuals and Krylov products alike:
    scipy's real transforms at ``n``, Bluestein's algorithm at a prime.
    A complex ``half`` at even ``n`` raises :class:`ValidationError`:
    ``irfft`` would drop its imaginary part at the Nyquist bin, the
    frequency that is its own mirror there.
    """
    from scipy import fft  # at first use, not at `import cylspec`

    if np.iscomplexobj(half) and v.size % 2 == 0:
        raise ValidationError(f"a complex half spectrum needs an odd lattice size, got {v.size}")
    if np.iscomplexobj(v):
        return multiply(half, v.real) + 1j * multiply(half, v.imag)
    return fft.irfft(fft.rfft(v) * half, v.size)


class Sector:
    """A solve's lattice vectors as stored: all ``n`` samples, or (``even``) the
    ``(n + 1)//2`` independent samples of an even vector, at an odd prime ``n`` the centre
    ``v[m]``, then ``v[m + g^q]`` for ``q < m`` in Rader's order (:func:`_rader_plan`),
    elsewhere ``v[n//2:]``."""

    def __init__(self, n, even):
        self.n, self.even = n, even
        self._plan = _rader_plan(n) if even else None

    def restrict(self, v):
        """The stored samples of ``v``, on the even sector of its even part."""
        return (0.5 * (v + v[::-1]))[self._plan[0]] if self.even else v

    def extend(self, f):
        """The lattice vector whose :meth:`restrict` is ``f``."""
        if not self.even:
            return f
        index, out = self._plan[0], np.empty(self.n, f.dtype)
        out[index] = out[self.n - 1 - index] = f  # each sample and its mirror
        return out

    def spectrum(self, half):
        """``half`` in :meth:`apply`'s order (even sector, prime ``n``: 0, then ``g^-p``)."""
        return half[self._plan[1]] if self.even else half

    def apply(self, half, f):
        """:func:`multiply` on stored samples ``f``, ``half`` in :meth:`spectrum`'s order: on the
        even sector at a prime ``n`` Rader's map, a cyclic correlation and a convolution of
        length ``(n - 1)/2``."""
        from scipy import fft

        if not self.even:
            return multiply(half, f)
        index, _, cos_in, cos_out = self._plan
        if cos_in is None:
            return multiply(half, self.extend(f))[index]
        m, offsets = self.n // 2, f[1:]
        spec = half[1:] * (f[0] + fft.irfft(fft.rfft(offsets) * cos_in, m))
        spec0 = half[0] * (f[0] + 2.0 * np.sum(offsets))
        back = fft.irfft(fft.rfft(spec) * cos_out, m)
        return np.concatenate([[spec0 + 2.0 * np.sum(spec)], spec0 + back]) / self.n

    def weights(self):
        """``(weight, norm)``, ``norm * ||weight * restrict(v)||_2 == ||v||_2`` for ``v`` in the
        sector: an even vector's stored sample stands for itself and its mirror, but the centre
        of an odd ``n`` for itself only."""
        if not self.even:
            return np.ones(self.n), 1.0
        weight = np.ones((self.n + 1) // 2)
        weight[0] = np.sqrt(0.5) if self.n % 2 else 1.0  # the centre sample
        return weight, np.sqrt(2.0)


def _prime_factors(k):
    """The distinct prime factors of ``k >= 1``, ascending."""
    factors, d = [], 2
    while d * d <= k:
        if k % d == 0:
            factors.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return factors + [k] if k > 1 else factors


def _unit_circle(k, n):
    """``cos(2 pi k/n)`` for integers ``k``, from angles of at most pi/4.

    The angle is ``pi/(2n)`` times ``4k``, which is split exactly, in
    integers, into ``q n + r`` with ``|r| <= n/2``; the ``q`` quarter turns
    pick the cosine or the sine of the rest and its sign.  Rounding
    ``2 pi k/n`` itself would put up to eight times as much absolute error
    in the angle.
    """
    four = 4 * k
    q = (2 * four + n) // (2 * n)
    angle = math.pi / (2 * n) * (four - q * n)
    c, s = np.cos(angle), np.sin(angle)
    return np.choose(q % 4, [c, -s, -c, s])


@lru_cache(maxsize=16)
def _rader_plan(n):
    """The even :class:`Sector`'s layout, and Rader's kernels at an odd prime.

    Returns the lattice index of each stored sample, the half-spectrum
    bin of each stored frequency in the same order, and the kernel's
    spectrum, conjugated for the correlation and plain for the
    convolution, all read-only.  Off the odd primes the indices are
    ``n//2 + k``, the bins ``k`` and the kernels None.  At an odd prime,
    with ``g`` the least primitive root mod ``n`` and ``m = (n - 1)/2``,
    the nonzero offsets from the centre sample ``m`` are ``+-g^q``,
    ``0 <= q < m`` (``g^m = -1``), and ``cos(2 pi g^q g^-p / n)`` depends on
    ``q - p`` only.  So an even vector's transform ``sum_k e_k cos(2 pi jk/n)``
    is a cyclic correlation of length ``m`` with the kernel
    ``2 cos(2 pi g^q/n)``, and the way back the matching convolution.  The
    samples are the centre, then the offsets ``g^q``; the bins 0, then those
    of the frequencies ``g^-p``.  Memoized per ``n``.
    """
    from scipy import fft

    if n < 3 or _prime_factors(n) != [n]:
        index, bins = n // 2 + np.arange((n + 1) // 2), np.arange(n // 2 + 1)
        index.flags.writeable = bins.flags.writeable = False
        return index, bins, None, None
    factors = _prime_factors(n - 1)
    g = next(g for g in range(2, n) if all(pow(g, (n - 1) // f, n) != 1 for f in factors))
    powers = np.ones(1, dtype=np.int64)
    while powers.size < n - 1:
        powers = np.concatenate([powers, powers * pow(g, powers.size, n) % n])
    powers = powers[: n - 1]  # g^q mod n
    m = (n - 1) // 2
    inverse = powers[-np.arange(m)]  # g^-p mod n
    spec = fft.rfft(2.0 * _unit_circle(powers[:m], n))
    index = np.concatenate([[m], (m + powers[:m]) % n])
    plan = (index, np.concatenate([[0], np.minimum(inverse, n - inverse)]), spec.conj(), spec)
    for array in plan:
        array.flags.writeable = False
    return plan


def fftconvolve(spectrum, b, length):
    """Cyclic convolution at ``length`` of ``b`` with the kernel whose ``rfft`` is ``spectrum``,
    on b's n points.

    A kernel holding its lags ``0 .. n-1`` in entries ``0 .. n-1`` and its
    lags ``-(n-1) .. -1`` in the last ``n - 1`` gives the window ``[n-1,
    2n-1)`` of the linear convolution once ``length >= 2n - 1``, which may be
    odd: no lag between two of b's points wraps.  scipy's real transforms,
    like :func:`multiply`.
    """
    from scipy import fft

    return fft.irfft(spectrum * fft.rfft(b, length), length)[: b.size]


def trapezoid_weights(n):
    """Trapezoid weights ``(1/2, 1, ..., 1, 1/2)`` of an n-point lattice, step excluded."""
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    return w


def trapezoid(values, step):
    """Trapezoid integral of lattice samples, ``step * (sum - (first + last)/2)``."""
    return step * (np.sum(values) - 0.5 * (values[0] + values[-1]))


TAIL_FLOOR = 1e-13
TAIL_CEILING = 1e-3


def tail_mask(samples):
    """The tail: samples whose envelope lies between TAIL_FLOOR and TAIL_CEILING of the peak.

    The envelope at a sample is the largest magnitude at or right of it,
    so it equals the peak up to the peak and an oscillating tail enters
    only once all of it to the right stays below TAIL_CEILING, not at its
    first zero crossing.  On a tail decreasing in magnitude the envelope
    is the magnitude.  Returns the boolean mask and the envelope relative
    to the peak.
    """
    env = np.maximum.accumulate(np.abs(samples)[::-1])[::-1]
    rel = env / env[0]
    return (rel < TAIL_CEILING) & (rel > TAIL_FLOOR), rel


def tail_rate(samples, t):
    """Decay rate at +infinity from a log-linear fit to the :func:`tail_mask` samples.

    A real tail that changes sign is fitted at the local maxima of its
    magnitude, as samples near its zeros would pull the rate down.  With
    fewer than 8 tail samples the rate is ``inf`` if the last sample is
    below TAIL_FLOOR of the peak (a numerically zero tail).
    """
    sel, rel = tail_mask(samples)
    if np.count_nonzero(sel) < 8:
        if rel[-1] < TAIL_FLOOR:
            return math.inf
        raise DecayHypothesisError("too few tail samples to measure a decay rate")
    t, tail, mag = t[sel], samples[sel], np.abs(samples[sel])
    if not np.any(np.imag(tail)) and np.any(tail.real > 0) and np.any(tail.real < 0):
        peaks = np.flatnonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] > mag[2:])) + 1
        if peaks.size >= 2:
            t, mag = t[peaks], mag[peaks]
    return -np.polyfit(t, np.log(mag), 1)[0]


def write_csv(fh, header, rows, metadata=None):
    """Write a CSV table with LF ends, after a ``# {json}`` line if metadata is given."""
    if metadata is not None:
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Read-only samples on ``t_min + step * k``: float64 when no imaginary
    part is nonzero (complex input with every imaginary part +-0 too),
    complex128 otherwise.  Real-only computations call :meth:`require_real`.

    Equality and hashing go by identity: ``g == h`` is ``g is h``, so two
    distinct objects with the same samples compare unequal, and ``hash(g)``
    works, which lets a memo key on a source.  Compare values with
    ``np.array_equal(g.samples, h.samples)``."""

    t_min: float
    t_max: float
    step: float
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.t_min) and np.isfinite(self.t_max) and self.step > 0.0):
            raise ValidationError("grid bounds must be finite and step positive")
        if self.t_max <= self.t_min:
            raise ValidationError(f"empty window [{self.t_min}, {self.t_max}]")
        arr = np.asarray(self.samples)
        cplx = np.iscomplexobj(arr) and np.any(arr.imag)
        arr = np.array(arr if cplx else arr.real, dtype=np.complex128 if cplx else np.float64)
        count = (self.t_max - self.t_min) / self.step + 1.0
        n = round(count)
        if abs(count - n) > 1e-9 or n != arr.size:
            raise ValidationError(
                f"lattice mismatch: window/step imply {count} points, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @classmethod
    def from_callable(cls, fun, t_min=-DEFAULT_T_MAX, t_max=DEFAULT_T_MAX, step=DEFAULT_STEP):
        n = round((t_max - t_min) / step) + 1
        t = t_min + step * np.arange(n)
        return cls(t_min=t_min, t_max=t_max, step=step, samples=np.asarray(fun(t)))

    @property
    def t(self):
        return self.t_min + self.step * np.arange(self.samples.size)

    @property
    def n_points(self):
        return self.samples.size

    def with_samples(self, samples):
        """Same lattice, new values."""
        return GridFunction(self.t_min, self.t_max, self.step, samples)

    def same_grid(self, other):
        return (
            self.t_min == other.t_min
            and self.t_max == other.t_max
            and self.step == other.step
        )

    def require_same_grid(self, other):
        if not self.same_grid(other):
            raise GridMismatchError(
                f"grids differ: [{self.t_min},{self.t_max}]/{self.step} vs "
                f"[{other.t_min},{other.t_max}]/{other.step}"
            )

    def decay_margin(self):
        """Largest endpoint magnitude relative to the peak (0 for h == 0)."""
        peak = float(np.max(np.abs(self.samples)))
        if peak == 0.0:
            return 0.0
        ends = max(abs(self.samples[0]), abs(self.samples[-1]))
        return float(ends) / peak

    def require_decay(self, threshold=1e-10):
        margin = self.decay_margin()
        if margin > threshold:
            raise WindowError(
                f"endpoint magnitude is {margin:.3e} of the peak, above {threshold:.1e}; "
                "widen the window"
            )

    def require_real(self):
        if np.iscomplexobj(self.samples):
            raise ValidationError(
                "samples have a nonzero imaginary part; this computation takes real data"
            )

    # -- serialization ------------------------------------------------------

    def csv_table(self):
        """Header ``t,re,im`` and one row per sample, at 17 significant digits."""
        f = FLOAT_FORMAT
        rows = ((f % t, f % v.real, f % v.imag) for t, v in zip(self.t, self.samples))
        return _CSV_HEADER, rows

    def to_csv(self, path, metadata=None):
        with open(path, "w", newline="") as fh:
            write_csv(fh, *self.csv_table(), metadata)

    @classmethod
    def from_csv(cls, path):
        """Load a ``t,re,im`` table; its ``t`` column must be uniform within ``1e-9 * step``."""
        rows = None
        try:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                # Leading '#' lines hold a JSON metadata echo; values live below.
                header = next((row for row in reader if not (row and row[0].startswith("#"))), None)
                if header == list(_CSV_HEADER):
                    rows = [(float(t), complex(float(re), float(im))) for t, re, im in reader]
        except (ValueError, csv.Error) as exc:  # not text, or a row without exactly three numbers
            raise ValidationError(f"malformed CSV lattice file {path}: {exc}") from exc
        if rows is None:
            raise ValidationError(f"expected header t,re,im, got {header}")
        if len(rows) < 2:
            raise ValidationError("need at least two samples")
        t, vals = zip(*rows)
        step = (t[-1] - t[0]) / (len(t) - 1)
        out = cls(t_min=t[0], t_max=t[-1], step=step, samples=np.array(vals))
        if not np.all(np.abs(np.array(t) - out.t) <= 1e-9 * step):
            raise ValidationError(f"the t column of {path} is not uniform with step {step!r}")
        return out

    def json_doc(self, metadata):
        """The JSON form: lattice, metadata, real and imaginary parts."""
        return {
            "grid": {"t_min": self.t_min, "t_max": self.t_max, "step": self.step},
            "metadata": metadata,
            "re": [float(v) for v in self.samples.real],
            "im": [float(v) for v in self.samples.imag],
        }

    def to_json(self, path, metadata=None):
        with open(path, "w") as fh:
            json.dump(self.json_doc(metadata or {}), fh)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            try:
                payload = json.load(fh)
                g, re, im = payload["grid"], np.array(payload["re"]), np.array(payload["im"])
                if re.shape != im.shape:
                    raise ValidationError(f"{path}: re and im hold {re.size} and {im.size} values")
                out = cls(g["t_min"], g["t_max"], g["step"], re + 1j * im)
            except ValidationError:
                raise
            except (ValueError, KeyError, TypeError) as exc:
                raise ValidationError(f"{path} is not a lattice document: {exc!r}") from exc
        return out, payload.get("metadata", {})
