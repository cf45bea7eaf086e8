"""Resolvent pole location, residues, certification."""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylspec import indicial
from cylspec.errors import (
    CylspecError,
    DegenerateRootError,
    IncompleteError,
    QuadratureError,
    ThresholdError,
    ValidationError,
)
from cylspec.indicial import certified_count, find_roots, residue_at
from cylspec.symbol import CylinderParams, mode_constants, theta, theta_derivative

# Frozen 40-digit oracle: roots of sigma cot(pi sigma/2) = kappa in
# successive windows, and the coefficients -1/f'(sigma_j).
SIGMA_03 = [
    0.76091823639160877,
    2.9351567821338766,
    4.9615536369849228,
    6.9726260650472244,
    8.9787369973770617,
]
COEF_03 = [
    1.0133992076048632,
    0.21946721383066801,
    0.12883910373622788,
    0.091492771079086081,
    0.070991970882999657,
]
TAU0_08 = 0.57316513075874602
SIGMA_08 = [2.8242752747369586, 4.8969071504161309, 6.9267988976440713]


def _params(kappa, n=3, gamma=0.5):
    return CylinderParams(n=n, gamma=gamma, kappa=kappa)


def test_kappa_zero_lattice():
    for n, g in [(3, 0.5), (4, 0.75), (5, 0.9)]:
        roots = find_roots(_params(0.0, n, g), mode=0, count=5)
        base = (n - 2 * g) / 2.0
        for j, r in enumerate(roots):
            assert abs(r.sigma - (base + 2 * j)) <= 1e-8
            assert r.tau == 0.0
            assert r.index == j


def test_stable_roots_reference():
    roots = find_roots(_params(0.3), mode=0, count=5)
    for r, want_s, want_c in zip(roots, SIGMA_03, COEF_03):
        assert abs(r.sigma - want_s) < 1e-11
        assert r.tau == 0.0
        # Residue is purely imaginary on the axis; its negated imaginary
        # part is the series coefficient -1/f'(sigma).
        assert r.residue.real == 0.0
        assert abs(-r.residue.imag - want_c) < 1e-11


def test_root_invariants():
    params = _params(0.3)
    roots = find_roots(params, mode=0, count=6)
    sig = [r.sigma for r in roots]
    assert sig == sorted(sig) and len(set(sig)) == len(sig)
    for r in roots:
        assert abs(complex(theta(params, 0, r.z)) - params.kappa) <= 1e-8


def test_unstable_roots_reference():
    roots = find_roots(_params(0.8), mode=0, count=4)
    assert roots[0].sigma == 0.0
    assert abs(roots[0].tau - TAU0_08) < 1e-11
    assert roots[0].residue.imag == 0.0  # real-axis root, real residue
    for r, want in zip(roots[1:], SIGMA_08):
        assert abs(r.sigma - want) < 1e-11 and r.tau == 0.0


def test_far_real_pair_is_certified(cold):
    # tau_0 lies beyond the default counting rectangle's 4 (m + 10) = 40.
    params = CylinderParams(n=4, gamma=0.18993, kappa=4.156)
    roots = find_roots(params, mode=0, count=3)
    assert roots[0].sigma == 0.0 and 40.0 < roots[0].tau < 45.0
    assert [r.tau for r in roots[1:]] == [0.0, 0.0]
    assert abs(complex(theta(params, 0, roots[0].tau)) - params.kappa) < 1e-8


def test_residue_first_order_consistency():
    params = _params(0.3)
    root = find_roots(params, mode=0, count=1)[0]
    dtheta = 1.0 / root.residue
    eps = 1e-6
    for direction in (1.0, 1j, (1 + 1j) / math.sqrt(2)):
        dz = eps * direction
        lhs = complex(theta(params, 0, root.z + dz)) - params.kappa
        assert abs(lhs - dtheta * dz) < 1e-4 * abs(dtheta * dz)


def test_riesz_coefficient_ratios():
    # kappa = 0 coefficients reproduce the hypergeometric Taylor
    # coefficients of the Riesz kernel: ratio of Pochhammer products.
    for n, g in [(3, 0.5), (4, 0.6)]:
        roots = find_roots(_params(0.0, n, g), mode=0, count=5)
        c = [-r.residue.imag for r in roots]
        for j in range(5):
            want = (
                _poch(n / 2 - g, j) * _poch(1 - g, j) / (_poch(n / 2, j) * math.factorial(j))
            )
            assert abs(c[j] / c[0] - want) < 1e-9
    # n=3, gamma=1/2 collapses to 1/(2j+1).
    roots = find_roots(_params(0.0), mode=0, count=4)
    c = [-r.residue.imag for r in roots]
    for j in range(4):
        assert abs(c[j] / c[0] - 1.0 / (2 * j + 1)) < 1e-10


def _poch(a, j):
    out = 1.0
    for k in range(j):
        out *= a + k
    return out


def test_threshold_rejection():
    params = _params(_params(0.0).lam)
    with pytest.raises(ThresholdError):
        find_roots(params, mode=0, count=2)


def test_roots_move_continuously_in_kappa():
    r1 = find_roots(_params(0.3), mode=0, count=4)
    r2 = find_roots(_params(0.3 + 1e-4), mode=0, count=4)
    for a, b in zip(r1, r2):
        assert 0.0 < a.sigma - b.sigma < 1e-2  # axis symbol decreases, roots drift down


def test_certified_count_direct():
    params = _params(0.3)
    assert certified_count(params, 0, 0.1, 9.5, tau_max=12.0) == 5
    assert certified_count(params, 0, 1.2, 1.8, tau_max=12.0) == 0
    unstable = _params(0.8)
    # Band straddling the real axis sees the pair +-tau_0.
    assert certified_count(unstable, 0, -0.25, 0.25, tau_max=12.0) == 2


def test_degenerate_root_rejected():
    from cylspec.indicial import IndicialRoot

    params = _params(_params(0.0).lam)
    origin = IndicialRoot(sigma=0.0, tau=0.0, residue=0j, index=0)
    with pytest.raises(DegenerateRootError):
        residue_at(params, 0, origin)


def test_near_double_root_away_from_origin_rejected():
    from cylspec.indicial import IndicialRoot

    # Theta_0 of (3, 0.5) has a critical point at z_c (40-digit mpmath),
    # where Theta_0'' = pi; 3e-11 / pi off it |Theta_0'| = 3e-11, inside
    # the tolerance 1e-10 although above 1e-10 / |z| = 4.9e-12.
    z_c = complex(1.5469595150548343, 20.475994441794032)
    params = _params(0.3)
    for z in (z_c, z_c + 3e-11 / math.pi):
        assert abs(theta_derivative(params, 0, z)) < indicial.DEGENERATE_TOL
        root = IndicialRoot(sigma=z.imag, tau=z.real, residue=0j, index=0)
        with pytest.raises(DegenerateRootError):
            residue_at(params, 0, root)


def test_far_real_root():
    # Unstable mode 3 of (3, 0.0159) at kappa = 1.92 Theta_3(0): the real
    # pair sits at tau_0 = 2.87e9, where the direct Gamma sum of the symbol
    # was 1e-6 off and the root was rejected by its residual.
    base = CylinderParams(n=3, gamma=0.0159)
    params = CylinderParams(n=3, gamma=0.0159, kappa=1.92 * complex(theta(base, 3, 0.0)).real)
    roots = find_roots(params, 3)
    root = roots[0]
    assert root.sigma == 0.0
    # 40-digit mpmath root of Theta_3(tau) = kappa; its residue 1/Theta_3'
    assert abs(root.tau - 2874259974.3160273) <= 1e-14 * root.tau
    assert abs(root.residue - 45218671498.856695) <= 1e-12 * root.residue.real
    for r in roots:
        assert abs(complex(theta(params, 3, r.z)) - params.kappa) <= 1e-8


def test_higher_mode_roots():
    params = CylinderParams(n=3, gamma=0.5, kappa=1.0)  # below Theta_1(0) = pi/2
    roots = find_roots(params, mode=1, count=3)
    assert 0.0 < roots[0].sigma < 2.0 and roots[0].tau == 0.0
    for r in roots:
        assert abs(complex(theta(params, 1, r.z)) - 1.0) <= 1e-8
    lattice = find_roots(CylinderParams(n=3, gamma=0.5), mode=1, count=3)
    for j, r in enumerate(lattice):
        assert abs(r.sigma - (2.0 + 2 * j)) <= 1e-8


def test_second_root_stays_above_the_first_symbol_pole():
    # No second root pair reaches the real axis as kappa grows past the
    # threshold: sigma_1 stays in its window above the symbol pole 2 A_m
    # and falls toward it like 1/kappa.  (sigma_1 - 2 A_m) kappa measured
    # 2.5e-4 to 3.2 over these cases; (3, 0.05) stops at 10 Theta_m(0),
    # where its real pair's tau_0 still certifies.
    cases = [(3, 0.5, 100.0), (4, 0.6, 100.0), (2, 0.1, 100.0), (5, 0.9, 100.0),
             (2, 0.95, 100.0), (4, 0.75, 100.0), (3, 0.05, 10.0)]
    for n, gamma, top in cases:
        for mode in range(3):
            base = _params(0.0, n, gamma)
            a, b = mode_constants(base, mode)
            lam = complex(theta(base, mode, 0.0)).real
            sigma = []
            for kappa in np.geomspace(1.01, top, 7) * lam:
                s1 = find_roots(_params(kappa, n, gamma), mode, count=2)[1].sigma
                assert 2.0 * a < s1 < 2.0 * b + 2.0
                assert (s1 - 2.0 * a) * kappa < 4.0
                sigma.append(s1)
            assert all(x > y for x, y in zip(sigma, sigma[1:])), (n, gamma, mode)


def test_winding_mismatch_raises_incomplete_and_is_not_memoized(cold, monkeypatch):
    # The certification's count is the only source of IncompleteError.
    params = _params(0.3)
    true_count = indicial.certified_count
    with monkeypatch.context() as patch:
        patch.setattr(indicial, "certified_count", lambda *a: true_count(*a) + 1)
        with pytest.raises(IncompleteError) as info:
            find_roots(params, mode=0, count=5)
    located = info.value.roots
    assert indicial._memo(params, 0) == []
    certified = find_roots(params, mode=0, count=5)
    assert _bits(located) == _bits(certified)
    for r, want in zip(certified, SIGMA_03):
        assert abs(r.sigma - want) < 1e-11


def test_count_validation():
    with pytest.raises(ValidationError):
        find_roots(_params(0.3), mode=0, count=0)


def _bits(roots):
    return [
        (r.sigma.hex(), r.tau.hex(), r.residue.real.hex(), r.residue.imag.hex(), r.index)
        for r in roots
    ]


@pytest.mark.parametrize("regime", ["stable", "zero", "unstable"])
@pytest.mark.parametrize("mode", [0, 1, 2, 3])
def test_prefix_equals_full_count(cold, regime, mode):
    lam = complex(theta(_params(0.0), mode, 0.0)).real
    kappa = {"stable": 0.5 * lam, "zero": 0.0, "unstable": 1.25 * lam}[regime]
    params = _params(kappa)
    full = _bits(find_roots(params, mode, count=14))
    for k in range(1, 15):
        assert _bits(find_roots(params, mode, count=k)) == full[:k]  # warm
        indicial._memo.cache_clear()
        assert _bits(find_roots(params, mode, count=k)) == full[:k]  # cold
    # A larger count after a smaller one searches again, to the same roots.
    assert _bits(find_roots(params, mode, count=14)) == full


def test_returned_list_is_a_copy(cold):
    params = _params(0.3)
    first = find_roots(params, mode=0, count=6)
    want = _bits(first)
    first.clear()
    again = find_roots(params, mode=0, count=6)
    assert _bits(again) == want
    again.reverse()
    assert _bits(find_roots(params, mode=0, count=3)) == want[:3]


def test_memo_is_bounded(cold):
    size = indicial._memo.cache_parameters()["maxsize"]
    for j in range(size + 6):
        find_roots(_params(0.0, 3, 0.1 + 0.01 * j), mode=0, count=2)
    assert indicial._memo.cache_info().currsize == size


@settings(max_examples=80, deadline=None)
@example(n=2, gamma=0.99999, mode=3, count=8, unstable=False, rel=0.5)  # |z| 17, |Theta'| 1.4e7
# The nearest float to the root (0.36 ulp off 40-digit mpmath) leaves 1.1e-8, |Theta'| 2.8e8.
@example(n=2, gamma=1e-09, mode=0, count=1, unstable=False, rel=0.75)
@given(
    n=st.integers(2, 8),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    mode=st.integers(0, 3),
    count=st.integers(1, 8),
    unstable=st.booleans(),
    rel=st.floats(1e-6, 1.0),
)
def test_roots_are_certified_or_a_named_error(n, gamma, mode, count, unstable, rel):
    try:
        lam = complex(theta(CylinderParams(n=n, gamma=gamma), mode, 0.0)).real
        kappa = lam * (1.0 + rel) if unstable else lam * (1.0 - rel)
        params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
        roots = find_roots(params, mode, count=count)
    except CylspecError:
        return
    a, b = mode_constants(params, mode)
    sig = [r.sigma for r in roots]
    assert len(roots) == count and sig == sorted(sig) and len(set(sig)) == count
    for j, r in enumerate(roots):
        # The bound find_roots enforces: round-off grows with Theta, like
        # |z|^(2 gamma), and one ulp of z moves Theta by |Theta'| spacing(|z|).
        tol = max(
            indicial.ROOT_RESIDUAL_TOL * max(1.0, abs(r.z) ** (2.0 * gamma)),
            2.0 * abs(theta_derivative(params, mode, r.z)) * np.spacing(abs(r.z)),
        )
        assert abs(complex(theta(params, mode, r.z)) - kappa) <= tol
        assert r.index == j
        if j >= 1:  # a positive level may round onto the window's zero end
            assert 2.0 * a + 2.0 * (j - 1) < r.sigma <= 2.0 * b + 2.0 * j
    if unstable:
        assert roots[0].sigma == 0.0 and roots[0].tau > 0.0
    else:
        assert 0.0 < roots[0].sigma <= 2.0 * b and roots[0].tau == 0.0


@pytest.mark.parametrize(
    "n, gamma, kappa, mode",
    [(2, 0.1, 0.3, 0), (3, 0.5, 0.3, 0), (5, 0.25, 0.2, 2), (6, 0.9, 0.5, 3),
     (3, 0.5, 1.0, 0), (4, 0.4, 3.5, 2), (3, 0.5, 2e3 / math.pi, 0)],
)
def test_search_takes_few_symbol_evaluations(cold, monkeypatch, n, gamma, kappa, mode):
    # Safeguarded Newton takes 7-10 evaluations on the first six 13-root
    # searches, the read of Theta_m(0) included; bisection down to adjacent
    # floats alone needs over 50.  At 1e3 Theta_0(0) = 2e3/pi the root of
    # window 1 sits next to its pole end and the search mostly bisects: 29.
    seen = []
    for name in ("_values", "_values_and_slopes"):
        inner = getattr(indicial, name)

        def counted(params, mode, along, x, f=inner):
            seen.append(np.broadcast_arrays(along, x))
            return f(params, mode, along, x)

        monkeypatch.setattr(indicial, name, counted)
    params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
    roots = find_roots(params, mode, count=13)
    assert len(roots) == 13 and len(seen) <= (29 if kappa > 100.0 else 16)
    # Past the read of Theta_m(0), every axis point lies strictly inside a
    # window: no symbol evaluation lands on a pole or a zero end.
    axis = np.concatenate([x[along == 1j] for along, x in seen])
    assert axis[0] == 0.0
    a, b = mode_constants(params, mode)
    j = np.arange(14)
    lo = np.where(j > 0, 2.0 * a + 2.0 * (j - 1), 0.0)
    hi = 2.0 * b + 2.0 * j
    x = axis[1:, None]
    assert np.all(np.any((lo < x) & (x < hi), axis=1))


@pytest.mark.parametrize("rel", [1e-15, 1e-300])
@pytest.mark.parametrize("n, gamma, mode", [(3, 0.5, 0), (2, 0.95, 0), (4, 0.3, 2)])
def test_tiny_positive_levels_give_certified_roots(cold, n, gamma, mode, rel):
    # Each root sits within 1e-13 of its window's zero end, or on it: at
    # rel = 1e-300 the first root is 2 B_m itself.
    lam = complex(theta(_params(0.0, n, gamma), mode, 0.0)).real
    params = _params(rel * lam, n, gamma)
    roots = find_roots(params, mode, count=3)
    a, b = mode_constants(params, mode)
    assert 0.0 < roots[0].sigma <= 2.0 * b
    for j, r in enumerate(roots):
        assert r.tau == 0.0 and r.index == j
        if j >= 1:
            assert 2.0 * a + 2.0 * (j - 1) < r.sigma <= 2.0 * b + 2.0 * j
        tol = max(
            indicial.ROOT_RESIDUAL_TOL * max(1.0, abs(r.z) ** (2.0 * gamma)),
            2.0 * abs(theta_derivative(params, mode, r.z)) * np.spacing(abs(r.z)),
        )
        assert abs(complex(theta(params, mode, r.z)) - params.kappa) <= tol


@pytest.fixture
def theta_mp():
    """``theta_mp`` of ``bench/reference.py``, whose import sets ``mpmath.mp.dps``; restored."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_reference", bench / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    dps = mpmath.mp.dps
    try:
        spec.loader.exec_module(reference)
    finally:
        mpmath.mp.dps = dps
    return reference.theta_mp


@pytest.mark.parametrize(
    "n, gamma, kappa, mode",
    [(2, 0.1, 0.3, 0), (3, 0.5, 0.3, 0), (5, 0.25, 0.2, 2), (6, 0.9, 0.5, 3),
     (2, 0.95, 0.001, 0), (4, 0.4, 1.0, 1)],
)
def test_axis_roots_match_mpmath(cold, theta_mp, n, gamma, kappa, mode):
    # Measured within 3.6 eps of the 40-digit roots.
    roots = find_roots(CylinderParams(n=n, gamma=gamma, kappa=kappa), mode, count=14)
    with mpmath.workdps(40):
        for r in roots:
            if r.tau:
                continue

            def f(s):
                return mpmath.re(theta_mp(n, gamma, mode, mpmath.mpc(0, s))) - kappa

            want = float(mpmath.findroot(f, mpmath.mpf(r.sigma)))
            assert abs(r.sigma - want) <= 8.0 * np.finfo(float).eps * want


@pytest.mark.parametrize("n, gamma, mode", [(3, 0.5, 2), (5, 0.9, 1)])
def test_axis_root_next_to_a_pole_at_large_kappa(cold, theta_mp, n, gamma, mode):
    # At kappa = 1e4 Theta_m(0) the axis root sits about c/kappa above the
    # pole 2 A_m, where one ulp of sigma moves Theta by more than
    # ROOT_RESIDUAL_TOL: the residual of the nearest float (1.3e-7 and
    # 6.0e-7) is within |Theta'| spacing(sigma), which the bound admits.
    kappa = 1e4 * complex(theta(CylinderParams(n=n, gamma=gamma), mode, 0.0)).real
    roots = find_roots(CylinderParams(n=n, gamma=gamma, kappa=kappa), mode, count=2)
    assert roots[0].sigma == 0.0 and roots[0].tau > 0.0
    a, _ = mode_constants(CylinderParams(n=n, gamma=gamma), mode)
    sigma = roots[1].sigma
    assert roots[1].tau == 0.0 and 0.0 < sigma - 2.0 * a < 1e-4
    with mpmath.workdps(40):

        def f(s):
            return mpmath.re(theta_mp(n, gamma, mode, mpmath.mpc(0, s))) - kappa

        want = float(mpmath.findroot(f, mpmath.mpf(sigma)))
    assert abs(sigma - want) <= 2.0 * np.spacing(want)


def test_root_search_reads_slopes_from_its_own_evaluation(cold, monkeypatch):
    # The residues come from the evaluation that checks the residuals.
    calls = []
    monkeypatch.setattr(indicial, "theta_derivative", lambda *a: calls.append(a))
    roots = find_roots(CylinderParams(n=3, gamma=0.5, kappa=0.3), 0, count=12)
    assert len(roots) == 12 and not calls


@pytest.mark.parametrize(
    "n, gamma, level, failure",
    [
        (3, 0.05, 15.0, None),  # tau_0 = 3.9e11
        (3, 0.05, 21.5, "contour passes through a root"),
        (2, 0.1, 100.0, None),  # tau_0 = 2.8e9
        (2, 0.1, 1e3, "phase tracking did not settle"),
    ],
)
def test_large_real_pair_certifies_or_raises_named_error(n, gamma, level, failure):
    # The real pair tau_0 ~ kappa^(1/(2 gamma)) outgrows the certification
    # contour near tau_0 ~ 1e12.  Below that the pair is returned and
    # solves Theta_0 = kappa; above, find_roots raises QuadratureError,
    # never a wrong root or a NaN.
    th0 = complex(theta(CylinderParams(n=n, gamma=gamma), 0, 0.0)).real
    params = CylinderParams(n=n, gamma=gamma, kappa=level * th0)
    if failure is not None:
        with pytest.raises(QuadratureError, match=failure):
            find_roots(params, 0, count=3)
        return
    root = find_roots(params, 0, count=3)[0]
    assert root.sigma == 0.0 and math.isfinite(root.tau) and root.tau > 1e9
    residual = complex(theta(params, 0, root.tau)).real - params.kappa
    assert abs(residual) <= 1e-12 * params.kappa
