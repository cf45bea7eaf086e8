"""Green's function series, its quadrature oracle, and the linear solvers.

The inverse of the mode operator ``Theta_m(D) - kappa`` acting on
decaying right-hand sides is convolution against

    G(t) = sum_j c_j e^{-sigma_j |t|},

with one term per resolvent pole ``z_j = i sigma_j`` on the imaginary
axis; above the mode's Hardy constant the first pole is instead the real
pair ``+-tau_0`` and contributes the non-decaying one-sided term ``c_0
sin(tau_0 t)`` for ``t < 0``.  No other kind of term occurs:
:func:`~cylspec.indicial.find_roots` places one root in each window of
the imaginary axis and the first one either there or on the real axis,
so every root has ``tau_j = 0`` or ``sigma_j = 0``.  The coefficients
come from the pole residues: with ``R_j`` the residue of ``1/(Theta_m -
kappa)`` at ``z_j`` and the inverse transform normalized as ``(1/2 pi)
int e^{i xi t} / (Theta - kappa)``, closing the contour gives ``c_j = i
R_j`` for axis poles and ``c_0 = 2 R_0`` for the real pair.

Two independent routes to the same objects live here on purpose: the
series against direct oscillatory quadrature of the Fourier integral,
and the one-shot FFT convolution against the per-root
variation-of-constants sweeps, reassembled.  Tests hold them against
each other.  The quadrature grows its lobe series in blocks of 32
lobes, evaluating each lobe once, up to a cap of 384.

Two memos let one source pair be swept once: the components' array of
:func:`component_solutions` on ``(series, source)``, and the kernel's
spectrum of :func:`solve_convolution` on ``(series, n, step)``, each a
``functools.lru_cache`` of 2 entries holding read-only arrays.  The
series is keyed by value and the source by identity, since a
:class:`~cylspec.grid.GridFunction` is immutable and hashes by identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecayHypothesisError,
    DomainError,
    QuadratureError,
    ValidationError,
)
from .grid import fftconvolve, multiply, tail_rate, trapezoid
from .grid import trapezoid_weights
from .indicial import find_roots
from .specfun import polygamma
from .symbol import mode_constants, theta, theta_lattice

__all__ = [
    "GreensSeries",
    "build_greens",
    "greens_quadrature_oracle",
    "solve_convolution",
    "solve_ode_system",
    "component_solutions",
    "asymptotic_coefficients",
    "apply_symbol",
]

REGIME_STABLE = "stable"
REGIME_UNSTABLE = "unstable"
_ORACLE_LOBES = 32  # half-period lobes per block of the oracle's series
_ORACLE_MAX_LOBES = 384  # the oracle's cap: 12 blocks
_ORACLE_TOL = 1e-9  # the oracle's relative tolerance


@dataclass(frozen=True)
class GreensSeries:
    """Truncated exponential series for the Green's function of one mode.

    ``roots[j]`` carries the pole, the float ``coefficients[j] = c_j`` the
    series weight.  ``tail_bound`` is the retained coefficient mass, a
    global (sup over t) size of the dropped terms, and ``tail_bound_at``
    scales it by the decay of the first dropped exponential.  Both are
    estimates, not bounds: the retained mass need not dominate the
    dropped mass.  For gamma < 1/2 the dropped terms can exceed
    ``tail_bound_at`` near t = 0: by up to 5.7x at n = 4, gamma = 0.1,
    kappa = 0.05, mode 3, truncation 12.
    """

    params: object
    mode: int
    roots: tuple
    coefficients: tuple
    truncation: int
    regime: str
    tail_bound: float
    sigma_next: float

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        at = np.abs(t)
        out = np.zeros(at.shape)
        for root, c in zip(self.roots, self.coefficients):
            if root.sigma == 0.0:
                out = out + c * np.sin(root.tau * t) * (t < 0.0)
            else:
                out = out + c * np.exp(-root.sigma * at)
        return float(out) if np.ndim(t) == 0 else out

    def tail_bound_at(self, t):
        """Estimate of the dropped terms at t; not a bound for gamma < 1/2."""
        return self.tail_bound * np.exp(-self.sigma_next * np.abs(t))

    @property
    def decay_exponents(self):
        """Decay rates ``sigma_j`` of a decaying series, one per root."""
        if self.regime == REGIME_UNSTABLE:
            raise ValidationError(
                "a decaying series is required; the series has a purely oscillatory mode"
            )
        return np.array([root.sigma for root in self.roots])

    def dropped_moments(self):
        """Moments ``(s1, s3, s5)`` of the roots the truncation drops; stable regime only.

        On a smooth source a large root's component is ``w_j = (2/sigma_j)
        h + (2/sigma_j^3) h'' + ...``, so the dropped roots act as ``2 s1 h
        + 2 s3 h'' + 2 s5 h''''``, ``s_k = sum_dropped c_j/sigma_j^k``.
        Over all roots the sums are ``q(0)/2``, ``-q''(0)/4``, ``q''''(0)/48``
        for ``q = 1/(Theta_m - kappa)``, in closed form since at 0 ``(log
        Theta_m)'' = (psi'(B_m) - psi'(A_m))/2`` and ``(log Theta_m)'''' =
        (psi'''(A_m) - psi'''(B_m))/8`` (Abramowitz & Stegun 6.4).
        """
        sigmas = self.decay_exponents
        ratios = np.array(self.coefficients) / sigmas
        a, b = mode_constants(self.params, self.mode)
        theta0 = complex(theta(self.params, self.mode, 0.0)).real
        l2 = 0.5 * (polygamma(1, b) - polygamma(1, a))
        l4 = 0.125 * (polygamma(3, a) - polygamma(3, b))
        t2, t4 = theta0 * l2, theta0 * (l4 + 3.0 * l2 * l2)
        d = theta0 - self.params.kappa
        q2 = -t2 / d**2
        q4 = -t4 / d**2 + 6.0 * t2 * t2 / d**3
        return (
            0.5 / d - float(np.sum(ratios)),
            -0.25 * q2 - float(np.sum(ratios / sigmas**2)),
            q4 / 48.0 - float(np.sum(ratios / sigmas**4)),
        )


def build_greens(params, mode=0, truncation=12):
    """Green's series with ``truncation + 1`` terms and a tail estimate."""
    if truncation < 0:
        raise ValidationError(f"truncation must be >= 0, got {truncation}")
    roots = find_roots(params, mode, count=truncation + 2)
    kept, next_root = roots[: truncation + 1], roots[truncation + 1]
    regime = REGIME_UNSTABLE if kept[0].sigma == 0.0 else REGIME_STABLE
    # The one-sided sine's weight is 2 Re R_0, an axis root's -Im R_j.
    coefficients = [
        2.0 * r.residue.real if r.sigma == 0.0 else -r.residue.imag for r in kept
    ]
    mass = sum(abs(c) for c in coefficients)
    return GreensSeries(
        params=params,
        mode=mode,
        roots=tuple(kept),
        coefficients=tuple(coefficients),
        truncation=truncation,
        regime=regime,
        tail_bound=mass,
        sigma_next=next_root.sigma,
    )


@functools.cache
def _gauss_nodes():
    x, w = np.polynomial.legendre.leggauss(48)
    return 0.5 * (x + 1.0), 0.5 * w  # mapped to [0, 1]


def greens_quadrature_oracle(params, mode, t, contour_shift=None):
    """Direct inverse-Fourier value of the Green's function at one point.

    Integrates ``(1/2 pi) int e^{i z t} / (Theta_m(z) - kappa) dz`` along
    a horizontal line ``Im z = s``.  The line integral splits into
    half-period lobes of the oscillation, each done with fixed
    Gauss-Legendre, and the slowly decaying alternating lobe series is
    summed by iterated averaging.  The series grows in blocks of 32
    lobes, each lobe evaluated once, and stops at the first block whose
    averaged limit meets the tolerance; at 384 lobes it gives up with
    :class:`QuadratureError`, naming the lobes reached.  The value at N
    lobes is bit for bit that of a single run over N lobes, since a
    lobe's integral and the running partial sums do not depend on the
    lobes after it.  For large ``|t|`` the contour is
    shifted toward the first pole (``s = sigma_0 / 2``), which removes
    most of the exponential smallness from the oscillatory cancellation.
    Stable regime only, and ``t = 0`` is excluded (log-type singularity).
    """
    if t == 0.0:
        raise DomainError("the Green's function is singular at t = 0")
    kappa = params.kappa
    if kappa >= complex(theta(params, mode, 0.0)).real - 1e-9:
        raise DomainError("quadrature oracle requires the stable regime")
    sigma0 = find_roots(params, mode, count=1)[0].sigma
    if contour_shift is None:
        shift = 0.0 if abs(t) <= 1.0 else 0.5 * sigma0
    else:
        if not 0.0 <= contour_shift < sigma0:
            raise ValidationError(
                f"contour_shift must lie in [0, sigma_0={sigma0}), got {contour_shift}"
            )
        shift = contour_shift
    s = shift if t > 0 else -shift
    width = math.pi / abs(t)
    nodes, weights = _gauss_nodes()

    lobes = np.empty(0, dtype=np.complex128)
    while len(lobes) < _ORACLE_MAX_LOBES:
        k = np.arange(len(lobes), len(lobes) + _ORACLE_LOBES)
        xi = k[:, None] * width + nodes[None, :] * width
        zp = xi + 1j * s
        zm = -xi + 1j * s
        th = theta(params, mode, zp)  # theta(zm) == conj(th) bit for bit: zm = -conj(zp)
        vals = np.exp(1j * zp * t) / (th - kappa)
        vals = vals + np.exp(1j * zm * t) / (np.conj(th) - kappa)
        lobes = np.concatenate([lobes, (vals * weights[None, :]).sum(axis=1) * width])
        est, err = _euler_limit(np.cumsum(lobes)[4:])
        scale = max(abs(est), 1e-300)
        if err <= _ORACLE_TOL * scale and abs(est.imag) <= 1e-7 * scale:
            return float(est.real) / (2.0 * math.pi)
    raise QuadratureError(
        f"oracle did not reach rel tol {_ORACLE_TOL} at t={t} in {len(lobes)} lobes: "
        f"err {err / (2.0 * math.pi):.3e}, value {est / (2.0 * math.pi):.6e}"
    )


def _euler_limit(partial):
    """Iterated averaging of a partial-sum sequence; (limit, error estimate)."""
    a = np.asarray(partial, dtype=np.complex128)
    best = a[-1]
    prev = best
    for _ in range(len(partial) - 1):
        a = 0.5 * (a[:-1] + a[1:])
        prev, best = best, a[-1]
        if len(a) < 3:
            break
    return best, abs(best - prev)


def solve_convolution(greens, h):
    """Particular solution of (Theta_m(D) - kappa) w = h as G * h, by FFT convolution.

    One cyclic convolution (:func:`~cylspec.grid.fftconvolve`) of the
    trapezoid-weighted source with :func:`_kernel`'s spectrum, exact on the
    n outputs.  The source must decay to 1e-10 of its peak at the window's
    ends.
    """
    h.require_decay()
    if np.iscomplexobj(h.samples):
        re = solve_convolution(greens, h.with_samples(h.samples.real))
        im = solve_convolution(greens, h.with_samples(h.samples.imag))
        return h.with_samples(re.samples + 1j * im.samples)
    n = h.n_points
    spectrum, length = _kernel(greens, n, h.step)
    return h.with_samples(fftconvolve(spectrum, h.samples * trapezoid_weights(n), length) * h.step)


@functools.lru_cache(maxsize=2)
def _kernel(greens, n, step):
    """The series' ``rfft`` at ``L = next_fast_len(2n - 1, real=True)``, and ``L``; read-only.

    The series is laid out as :func:`~cylspec.grid.fftconvolve` takes it,
    on the lags of spacing ``step``.  Its exponentials, even in t, are
    sampled once on the lags ``0 .. n-1`` as the sweeps' blocked powers
    ``r_j^i`` (``i < _BLOCK``) times the block starts ``r_j^(_BLOCK b)``, in
    one product with the coefficients, and mirrored bit for bit; the
    unstable regime's one-sided sine is sampled on the negative lags.
    """
    from scipy import fft

    length = fft.next_fast_len(2 * n - 1, real=True)
    sine = int(greens.roots[0].sigma == 0.0)  # the unstable regime's real pair comes first
    log_r = -step * np.array([r.sigma for r in greens.roots[sine:]])
    powers = np.exp(log_r[:, None] * np.arange(_BLOCK))
    starts = np.exp(_BLOCK * log_r[:, None] * np.arange(-(-n // _BLOCK)))
    right = ((np.array(greens.coefficients[sine:]) * starts.T) @ powers).ravel()[:n]
    kernel = np.zeros(length)
    kernel[:n], kernel[length - n + 1 :] = right, right[:0:-1]
    if sine:
        lags = np.arange(1 - n, 0) * step
        kernel[length - n + 1 :] += greens.coefficients[0] * np.sin(greens.roots[0].tau * lags)
    spectrum = fft.rfft(kernel)
    spectrum.flags.writeable = False
    return spectrum, length


_BLOCK = 32  # lattice points per block of the sweeps
_LAG = np.abs(np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK)))  # |i - k| in a block


def _geometric_scan(x, log_r):
    """One-sided sweep ``out[j, i] = sum_{k<=i} r_j^(i-k) x[j, k]``, ``r_j = e^{log_r[j]}``.

    All ``|r_j| <= 1``.  Each block is one product with the triangular
    powers ``r_j^(i - k)``, plus the previous block's last value times
    ``r_j^(i + 1)``: the same scan of the block ends at ratio ``r_j^_BLOCK``.
    """
    n, blocks = x.shape[-1], -(-x.shape[-1] // _BLOCK)
    powers = np.exp(log_r[:, None] * np.arange(_BLOCK + 1))
    x_blocks = np.pad(x, ((0, 0), (0, -n % _BLOCK))).reshape(len(x), blocks, _BLOCK)
    out = x_blocks @ np.triu(powers[:, _LAG])  # [j, k, i] = r_j^(i - k) for i >= k
    if blocks > 1:
        ends = _geometric_scan(out[:, :, -1], _BLOCK * log_r)
        out[:, 1:, :] += ends[:, :-1, None] * powers[:, None, 1:]
    return out.reshape(len(x), blocks * _BLOCK)[:, :n]


def _two_sided_sweep(u, log_r):
    """``out[j, i] = sum_k r_j^|i - k| u[k]``: the left sweep plus the right one, less u.

    In a block both are one product with the powers ``r_j^|i - k|``.  The
    left sweep enters from the previous block's end, times ``r_j^(i + 1)``,
    the right one from the next block's start, times ``r_j^(_BLOCK - i)``;
    both end values are :func:`_geometric_scan` of the blocks' own sums.
    """
    u_blocks = np.pad(u, (0, -u.size % _BLOCK)).reshape(-1, _BLOCK)
    powers = np.exp(log_r[:, None] * np.arange(_BLOCK + 1))
    out = u_blocks @ powers[:, _LAG]
    last = _geometric_scan((u_blocks @ powers[:, _BLOCK - 1 :: -1].T).T, _BLOCK * log_r)
    first = _geometric_scan((u_blocks[::-1] @ powers[:, :_BLOCK].T).T, _BLOCK * log_r)
    carry = np.zeros(out.shape[:2] + (2,), dtype=out.dtype)
    carry[:, 1:, 0] = last[:, :-1]
    carry[:, :-1, 1] = first[:, -2::-1]
    out += carry @ np.stack([powers[:, 1:], powers[:, :0:-1]], axis=1)
    return out.reshape(log_r.size, u_blocks.size)[:, : u.size]


@functools.lru_cache(maxsize=2)
def component_solutions(greens, h):
    """Per-root particular solutions w_j = k_j * h on h's grid, by variation of constants.

    Axis roots have the kernel ``e^{-sigma_j |t|}``, and w_j solves
    ``w_j'' - sigma_j^2 w_j = -2 sigma_j h``; the unstable real pair has
    ``sin(tau_0 t) chi_{t<0}`` and solves ``w_0'' + tau_0^2 w_0 = -tau_0
    h``.  With ``u`` the trapezoid-weighted source and ``r = e^{-sigma_j
    step}``, ``w_j = L + R - u`` for the sweeps ``L[i] = r L[i-1] + u[i]``
    and ``R[i] = r R[i+1] + u[i]``; the sine component is ``(R(e^{-i tau_0 step}) - R(e^{i tau_0 step})) /
    2i``.  This is the trapezoid convolution of :func:`solve_convolution`,
    but no power of ``r`` exceeds 1 in modulus, so the round-off is
    relative to the local size of ``|k_j| * |u|`` (for the sine, of ``|u|``
    summed to the right), not to the peak.  All roots sweep together, in
    numpy alone.  The source must decay to 1e-10 of its peak at the
    window's ends.

    Returns one read-only ``(len(greens.roots), n)`` array, row j for
    root j, float64 unless some imaginary part is nonzero (the rule of
    :class:`~cylspec.grid.GridFunction`), so for a real source in every
    regime.  Memoized on ``(greens, h)`` for the last 2 pairs, so the
    solves and the Wronskian of one source pair share one sweep each.
    """
    return _sweep(greens, h)


def _sweep(greens, h):
    """The array of :func:`component_solutions`, computed afresh."""
    h.require_decay()
    u = h.samples * (h.step * trapezoid_weights(h.n_points))
    roots = greens.roots
    sine = roots[0].sigma == 0.0  # the unstable regime's real pair comes first
    sigmas = np.array([r.sigma for r in roots[int(sine) :]])
    out = _two_sided_sweep(u, -h.step * sigmas)
    if sine:
        pair = 1j * h.step * roots[0].tau * np.array([-1.0, 1.0])
        right = _geometric_scan(np.stack([u[::-1]] * 2), pair)[:, ::-1]
        out = np.concatenate([(right[:1] - right[1:]) / 2j, out])
    if np.iscomplexobj(out) and not np.any(out.imag):
        out = np.ascontiguousarray(out.real)
    out.flags.writeable = False
    return out


def solve_ode_system(greens, h):
    """Reassembled solution sum_j c_j w_j, over the rows of :func:`component_solutions`.

    The quadrature of :func:`solve_convolution`, reached by the per-root
    sweeps instead of one FFT, so the two agree to round-off; the
    components' array is what the Wronskian machinery consumes.
    """
    if np.iscomplexobj(h.samples):
        re = solve_ode_system(greens, h.with_samples(h.samples.real))
        im = solve_ode_system(greens, h.with_samples(h.samples.imag))
        return h.with_samples(re.samples + 1j * im.samples)
    comps = component_solutions(greens, h)
    return h.with_samples(sum(c * w for c, w in zip(greens.coefficients, comps)))


def asymptotic_coefficients(roots, h):
    """Weighted moments giving the t -> +infinity amplitudes of G * h.

    Entry j is ``C_j = int e^{sigma_j t} h(t) dt`` for an axis root and
    the pair ``(int e^{sigma_j t} cos(tau_j t) h, int e^{sigma_j t}
    sin(tau_j t) h)`` for an oscillatory one.  Requires h to decay
    strictly faster than the largest weight used.  The weight multiplies
    ``|h|`` in the exponent, ``exp(sigma_j t + log|h|) h/|h|``, so it
    cannot overflow; a real source gives real moments.
    """
    used = list(roots)
    if not used:
        return []
    if np.max(np.abs(h.samples)) == 0.0:
        return [
            0.0 if r.tau == 0.0 else (0.0, 0.0) for r in used
        ]
    rate = tail_rate(h.samples, h.t)
    sigma_max = max(r.sigma for r in used)
    if rate <= sigma_max:
        raise DecayHypothesisError(
            f"h decays like e^(-{rate:.3f} t) but the slowest requested weight "
            f"is e^(+{sigma_max:.3f} t); moments would diverge"
        )
    t = h.t
    mag = np.abs(h.samples)
    unit = h.samples / np.where(mag == 0.0, 1.0, mag)  # h/|h|, 0 where h is
    with np.errstate(divide="ignore"):
        log_mag = np.log(mag)
    out = []
    for r in used:
        grown = np.exp(r.sigma * t + log_mag) * unit
        if r.tau == 0.0:
            out.append(trapezoid(grown, h.step).item())
        else:
            c1 = trapezoid(np.cos(r.tau * t) * grown, h.step).item()
            c2 = trapezoid(np.sin(r.tau * t) * grown, h.step).item()
            out.append((c1, c2))
    return out


def apply_symbol(params, mode, w):
    """Apply the symbol as a Fourier multiplier on the (periodized) window.

    The grid is treated as one period; the wrap-around error is of the
    order of the function's endpoint magnitude, so inputs should satisfy
    the window-decay invariant.
    """
    return w.with_samples(multiply(theta_lattice(params, mode, w.n_points, w.step), w.samples))
