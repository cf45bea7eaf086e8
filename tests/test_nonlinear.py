"""Newton solver convergence, basins, and failure modes."""

from collections import Counter

import numpy as np
import pytest
import scipy.fft

import cylspec.nonlinear
import cylspec.symbol
from cylspec.errors import DivergenceError, NegativityError, ValidationError, WindowError
from cylspec.grid import GridFunction, Sector, multiply, tail_mask
from cylspec.identities import pohozaev_check
from cylspec.nonlinear import solve_profile
from cylspec.profiles import bubble, cylinder_constant, frobenius_fit
from cylspec.symbol import CylinderParams, theta_lattice

SIGMA0_K03 = 0.76091823639160877


def _grid(fun, step=2.0**-7, t_max=30.0):
    return GridFunction.from_callable(lambda t: fun(t) + 0j, -t_max, t_max, step)


def _perturbed_bubble(params, eps, f, step=2.0**-7, t_max=30.0):
    """The scaled bubble times ``1 + eps cos(f t) exp(-t^2/18)`` on ``[-t_max, t_max]``."""
    c = (params.lam - params.kappa) ** (1.0 / (params.p - 1.0))
    return _grid(
        lambda t: c * bubble(params, t) * (1.0 + eps * np.cos(f * t) * np.exp(-t * t / 18.0)),
        step,
        t_max,
    )


def test_recovers_scaled_bubble_from_perturbed_guess():
    for n, g in [(3, 0.5), (4, 0.75)]:
        params = CylinderParams(n=n, gamma=g)
        c = params.lam ** (1.0 / (params.p - 1.0))
        guess = _grid(lambda t: 1.1 * c * bubble(params, t))
        report = solve_profile(params, guess)
        assert report.converged and not report.trivial
        assert report.iterations <= 15
        assert report.residual_norm <= 1e-10
        target = c * bubble(params, report.solution.t)
        sup = np.max(np.abs(report.solution.samples.real - target))
        assert sup <= 1e-4 * np.max(target)
        # at (3, 1/2) the scaled bubble collapses to 1/cosh
        if (n, g) == (3, 0.5):
            sech = 1.0 / np.cosh(report.solution.t)
            assert np.max(np.abs(report.solution.samples.real - sech)) < 1e-10


def test_even_guess_yields_even_solution():
    params = CylinderParams(n=3, gamma=0.5)
    report = solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)))
    w = report.solution.samples.real
    assert np.max(np.abs(w - w[::-1])) <= 1e-10 * np.max(np.abs(w))
    assert np.min(w) >= -1e-8 * np.max(w)


@pytest.mark.parametrize("step, t_max", [(2.0**-7, 30.0), (2.0**-6, 30.0), (2.0**-7, 30.0 - 2.0**-8)])
def test_translated_guess_solves_on_the_full_lattice(monkeypatch, step, t_max):
    # A guess rolled by one time unit is not even, so it is solved on the
    # full lattice.  The periodized equation commutes with the roll, so the
    # solution is the even solve's rolled, after as many Newton steps, at
    # 7681 (prime), 3841 (composite) and 7680 (even) points.
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    guess = _perturbed_bubble(params, 0.13, 0.75, step, t_max)
    shift = round(1.0 / step)
    even = solve_profile(params, guess)
    apply, sectors = Sector.apply, set()

    def spy(sector, half, f):
        sectors.add((sector.even, f.size))
        return apply(sector, half, f)

    monkeypatch.setattr(Sector, "apply", spy)
    moved = solve_profile(params, guess.with_samples(np.roll(guess.samples, shift)))
    assert sectors == {(False, guess.n_points)}
    w = even.solution.samples
    assert np.max(np.abs(moved.solution.samples - np.roll(w, shift))) <= 1e-12 * np.max(w)
    assert moved.iterations == even.iterations
    pairs = zip(even.history, moved.history)
    assert all(abs(a.gmres_iterations - b.gmres_iterations) <= 1 for a, b in pairs)


def test_composite_lattice_solves_on_the_natural_half_lattice(cold):
    # 3841 points is 23 * 167: no Rader kernel, so the even sector's product
    # extends, multiplies and keeps the stored samples.  The solution is
    # exactly even, solves the equation on the whole lattice, and matches
    # the 7681-point one.
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    coarse = solve_profile(params, _grid(lambda t: 0.5 / np.cosh(t), step=2.0**-6))
    w = coarse.solution.samples
    assert coarse.converged and w.size == 3841 and cylspec.grid._rader_plan(3841)[2] is None
    assert np.array_equal(w, w[::-1])
    half = theta_lattice(params, 0, w.size, 2.0**-6) - params.kappa
    assert np.max(np.abs(multiply(half, w) - w**params.p)) <= 1e-10
    fine = solve_profile(params, _grid(lambda t: 0.5 / np.cosh(t)))
    assert np.max(np.abs(fine.solution.samples[::2] - w)) <= 1e-8


def test_lattice_periodic_solution_raises_window_error():
    # From its kappa = 0.7 Lambda solution, the solve at 0.9 Lambda used to
    # report convergence after 29 steps on a period-30 solution of the
    # periodized equation, peaked at t = -15 and at 1.3e-2 of its peak at
    # the window's ends.  A solution must decay as the guess must.
    base = CylinderParams(n=4, gamma=0.75)
    near = CylinderParams(n=4, gamma=0.75, kappa=0.7 * base.lam)
    c = (near.lam - near.kappa) ** (1.0 / (near.p - 1.0))
    start = solve_profile(near, _grid(lambda t: c * bubble(near, t)))
    assert start.solution.decay_margin() <= 1e-8
    far = CylinderParams(n=4, gamma=0.75, kappa=0.9 * base.lam)
    with pytest.raises(WindowError, match="not a decaying profile") as failure:
        solve_profile(far, start.solution)
    history = failure.value.history
    assert len(history) > 10 and all(step.alpha > 0.0 for step in history)


def test_zero_guess_is_trivial():
    params = CylinderParams(n=3, gamma=0.5)
    report = solve_profile(params, _grid(lambda t: np.zeros_like(t)))
    assert report.converged and report.trivial
    assert report.residual_norm == 0.0 and report.iterations == 0
    assert np.max(np.abs(report.solution.samples)) == 0.0


def test_subcritical_spectral_parameter_solution():
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    report = solve_profile(params, _grid(lambda t: 0.5 / np.cosh(t)))
    assert report.converged and not report.trivial
    fit = frobenius_fit(report.solution, window=(8.0, 16.0))
    assert abs(fit.sigma - SIGMA0_K03) < 0.01 * SIGMA0_K03
    # basin is wide: a different positive guess lands on the same profile
    other = solve_profile(params, _grid(lambda t: 0.7 / np.cosh(t)))
    diff = np.max(np.abs(other.solution.samples - report.solution.samples))
    assert diff < 1e-9


def test_grid_refinement_consistency():
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    sols = {}
    for step in (2.0**-7, 2.0**-8):
        rep = solve_profile(params, _grid(lambda t: 0.5 / np.cosh(t), step=step))
        assert rep.converged and rep.residual_norm <= 1e-10
        sols[step] = rep.solution.samples.real
    assert np.max(np.abs(sols[2.0**-7] - sols[2.0**-8][::2])) < 1e-8


def test_iteration_cap_raises():
    params = CylinderParams(n=3, gamma=0.5)
    with pytest.raises(DivergenceError) as failure:
        solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)), max_iterations=1)
    (step,) = failure.value.history
    assert step.alpha > 0.0 and step.gmres_info == 0 and step.gmres_iterations > 0


def test_positivity_loss_raises():
    params = CylinderParams(n=3, gamma=0.5)
    with pytest.raises(NegativityError) as failure:
        solve_profile(params, _grid(lambda t: 0.02 * np.exp(-0.5 * t**2)))
    history = failure.value.history
    # the failing step is last, with no step accepted
    assert history and history[-1].alpha == 0.0 and history[-1].gmres_info == 0
    assert all(step.alpha > 0.0 for step in history[:-1])


def test_tolerance_below_round_off_stalls():
    # The exact profile on 3841 points reaches a residual near 1e-14, which
    # round-off keeps above 1e-16: no halving of the last step lowers it.
    params = CylinderParams(n=3, gamma=0.5)
    c = cylinder_constant(params)
    guess = _grid(lambda t: c * bubble(params, t), step=2.0**-6)
    with pytest.raises(DivergenceError, match="residual stalled") as failure:
        solve_profile(params, guess, tolerance=1e-16)
    history = failure.value.history
    assert history[-1].alpha == 0.0 and history[-1].residual < 1e-12
    assert all(step.alpha > 0.0 for step in history[:-1])


def test_precondition_validation():
    params = CylinderParams(n=3, gamma=0.5, kappa=0.7)  # above the Hardy constant
    with pytest.raises(ValidationError):
        solve_profile(params, _grid(lambda t: 1.0 / np.cosh(t)))
    stable = CylinderParams(n=3, gamma=0.5)
    with pytest.raises(ValidationError):
        solve_profile(stable, _grid(lambda t: -1.0 / np.cosh(t)))
    with pytest.raises(ValidationError):
        solve_profile(stable, _grid(lambda t: 1.0 / np.cosh(t)), max_iterations=0)


def test_report_metadata_roundtrip():
    params = CylinderParams(n=3, gamma=0.5)
    report = solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)))
    meta = report.as_metadata()
    assert set(meta) == {"residual_norm", "iterations", "converged", "trivial"}
    assert meta["converged"] is True and meta["trivial"] is False
    assert meta["iterations"] == report.iterations


def test_history_records_every_newton_step():
    params = CylinderParams(n=3, gamma=0.5)
    report = solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)))
    history = report.history
    assert len(history) == report.iterations >= 2
    residuals = [step.residual for step in history] + [report.residual_norm]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert all(step.gmres_info == 0 and step.gmres_iterations > 0 for step in history)
    assert all(0.0 < step.alpha <= 1.0 for step in history)


def test_gmres_flag_is_raised(monkeypatch):
    def failing_gmres(op, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(cylspec.nonlinear, "gmres", failing_gmres)
    params = CylinderParams(n=3, gamma=0.5)
    with pytest.raises(DivergenceError, match="info = 1 at Newton step 1") as failure:
        solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)))
    (step,) = failure.value.history
    assert (step.alpha, step.gmres_iterations, step.gmres_info) == (0.0, 0, 1)
    assert step.residual > 1e-3


@pytest.mark.parametrize("step", [2.0**-7, 2.0**-8], ids=["7681", "15361"])
@pytest.mark.parametrize(
    "eps, f, newton_steps", [(0.05, 0.5, 4), (0.05, 1.0, 4), (0.05, 1.5, 4), (0.25, 1.0, 5)]
)
def test_gmres_floor_ends_the_stall(eps, f, newton_steps, step):
    # Guesses near the one from which a GMRES call of (4, 0.75, 0) once
    # ran all its restarts: a relative 1e-10 on a right-hand side near the
    # Newton tolerance asked for less than one product's round-off.
    params = CylinderParams(n=4, gamma=0.75)
    report = solve_profile(params, _perturbed_bubble(params, eps, f, step))
    assert report.converged and report.residual_norm <= 1e-10
    assert report.iterations == newton_steps
    assert [h.gmres_info for h in report.history] == [0] * newton_steps


@pytest.mark.parametrize("n, gamma, kappa", [(3, 0.5, 0.3), (4, 0.75, 0.0)])
@pytest.mark.parametrize("eps, f", [(0.10, 0.5), (0.13, 0.75), (0.16, 1.0)])
def test_free_preconditioner_krylov_counts(n, gamma, kappa, eps, f):
    # Preconditioned by (Theta_0 - kappa)^-1, the linearization is the
    # identity plus a compact term: few GMRES iterations per Newton step
    # (17-46 under the shifted preconditioner), and as many on the refined
    # grid as on the default one.
    params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
    counts = []
    for step in (2.0**-7, 2.0**-8):
        report = solve_profile(params, _perturbed_bubble(params, eps, f, step))
        counts.append([h.gmres_iterations for h in report.history])
    assert len(counts[0]) == len(counts[1])
    assert max(counts[0] + counts[1]) <= 15
    assert all(abs(a - b) <= 2 for a, b in zip(*counts))


@pytest.mark.parametrize("eps, f", [(0.05, 1.5), (0.25, 1.0)])
def test_right_preconditioning_closes_the_grid_gap(eps, f):
    # Under left preconditioning GMRES stopped on the preconditioned
    # residual, and the last Newton step of these solves took 20 and 22
    # iterations on 15361 points against 4 and 8 on 7681.  Right
    # preconditioning stops on the Newton residual itself.
    params = CylinderParams(n=4, gamma=0.75)
    counts = []
    for step in (2.0**-7, 2.0**-8):
        report = solve_profile(params, _perturbed_bubble(params, eps, f, step))
        counts.append([h.gmres_iterations for h in report.history])
    assert len(counts[0]) == len(counts[1])
    assert all(abs(a - b) <= 2 for a, b in zip(*counts))


@pytest.mark.parametrize("n, gamma, kappa", [(3, 0.5, 0.3), (4, 0.75, 0.0)])
def test_one_circulant_per_krylov_iteration(cold, monkeypatch, n, gamma, kappa):
    # ``P`` is the circulant of one multiplier product.  A symmetric solve
    # runs on the even sector, where at the prime lattice size
    # each product is two real transforms at (n - 1)/2; the one more there
    # is the Rader kernel's, built from a cold start.  One ``P`` per
    # Krylov product and one for each Newton step's true-residual check,
    # whose ``P y`` is the step itself; two ``P`` per product, or a
    # separate step product, would add to it.  GMRES's vectors hold the
    # (n + 1)/2 independent samples.  A warm repeat takes the kernel from
    # the memo.
    calls = Counter()
    halves = []
    sizes = set()
    rfft, apply, gmres = scipy.fft.rfft, Sector.apply, cylspec.nonlinear.gmres

    def counted(x, n=None, *args, **kwargs):
        calls[x.shape[-1] if n is None else n] += 1
        return rfft(x, n, *args, **kwargs)

    def spy(sector, half, f):
        halves.append(half)
        return apply(sector, half, f)

    def spy_gmres(op, b, **kwargs):
        sizes.update({*op.shape, b.size})
        return gmres(op, b, **kwargs)

    params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
    guess = _perturbed_bubble(params, 0.13, 0.75)
    monkeypatch.setattr(scipy.fft, "rfft", counted)
    monkeypatch.setattr(Sector, "apply", spy)
    monkeypatch.setattr(cylspec.nonlinear, "gmres", spy_gmres)
    report = solve_profile(params, guess)
    assert report.converged
    size = guess.samples.size
    m = (size - 1) // 2
    assert sizes == {m + 1}
    sym_vals = Sector(size, True).spectrum(theta_lattice(params, 0, size, guess.step) - params.kappa)
    inv_vals = 1.0 / sym_vals
    is_inv = [np.array_equal(h, inv_vals) for h in halves]
    is_sym = [np.array_equal(h, sym_vals) for h in halves]
    krylov = sum(h.gmres_iterations for h in report.history)
    assert sum(is_inv) == krylov + report.iterations
    # the initial residual and at least one trial per Newton step
    assert sum(is_sym) >= report.iterations + 1
    assert all(a or b for a, b in zip(is_inv, is_sym))
    assert calls == {m: 2 * len(halves) + 1}
    cold_calls = calls.copy()
    calls.clear()
    halves.clear()
    assert solve_profile(params, guess).history == report.history
    assert calls == {m: cold_calls[m] - 1}


def test_warm_solve_reuses_the_lattice_operator(cold, monkeypatch):
    # A repeated solve on the same parameters and lattice takes the lattice
    # symbol from its memo: no symbol evaluation, and the same solution bit
    # for bit after the same Newton and GMRES steps.
    params = CylinderParams(n=3, gamma=0.5, kappa=0.3)
    guess = _perturbed_bubble(params, 0.13, 0.75)
    calls = []
    theta = cylspec.symbol.theta

    def counted(*args):
        calls.append(args)
        return theta(*args)

    monkeypatch.setattr(cylspec.symbol, "theta", counted)
    first = solve_profile(params, guess)
    assert len(calls) == 1  # the cold solve samples the lattice once
    second = solve_profile(params, guess)
    assert len(calls) == 1
    assert np.array_equal(second.solution.samples, first.solution.samples)
    assert second.history == first.history


def test_solved_tail_is_clean():
    # Round-off in the residual's product would sit in the tail, where
    # the energy identity measures the decay rate and the fit reads sigma.
    params = CylinderParams(n=4, gamma=0.75)
    report = solve_profile(params, _perturbed_bubble(params, 0.05, 0.5))
    assert pohozaev_check(params, report.solution).relative_spread <= 1e-3
    fit = frobenius_fit(report.solution)
    sigma0 = 0.5 * params.n - params.gamma
    assert abs(fit.sigma - sigma0) < 0.01 * sigma0
    # the solved tail decreases, so selecting it on its envelope picks
    # the samples that their own magnitudes pick
    w = report.solution.samples.real
    rel = np.abs(w) / np.max(np.abs(w))
    own = (np.arange(w.size) > np.argmax(rel)) & (rel < 1e-3) & (rel > 1e-13)
    assert np.array_equal(tail_mask(w)[0], own)


@pytest.mark.parametrize("n, gamma", [(5, 0.25), (6, 0.9)])
def test_default_fit_window_follows_the_tail(n, gamma):
    # From this guess the solved tail is round-off on the last third of
    # the grid, so the default window has to be placed by magnitude.
    params = CylinderParams(n=n, gamma=gamma)
    fit = frobenius_fit(solve_profile(params, _perturbed_bubble(params, 0.13, 0.75)).solution)
    sigma0 = 0.5 * n - gamma
    assert abs(fit.sigma - sigma0) <= 1e-6 * sigma0
    assert fit.tau == 0.0


def _solve_to_the_floor(monkeypatch, params, guess, tolerance=1e-10):
    """``solve_profile`` with every GMRES call run to ``GMRES_FLOOR * tolerance``,
    with no forcing term."""
    gmres = cylspec.nonlinear.gmres

    def floor_only(op, b, **kwargs):
        return gmres(op, b, **{**kwargs, "atol": cylspec.nonlinear.GMRES_FLOOR * tolerance})

    with monkeypatch.context() as patched:
        patched.setattr(cylspec.nonlinear, "gmres", floor_only)
        return solve_profile(params, guess, tolerance)


@pytest.mark.parametrize("step", [2.0**-7, 2.0**-8], ids=["7681", "15361"])
@pytest.mark.parametrize(
    "n, gamma, kappa", [(3, 0.5, 0.0), (4, 0.75, 0.0), (3, 0.5, 0.3), (2, 0.3, 0.2)]
)
def test_forcing_keeps_the_newton_steps(monkeypatch, n, gamma, kappa, step):
    # A linear residual below FORCING * r^2 keeps Newton quadratic (Dembo,
    # Eisenstat & Steihaug): the same steps to the same solution as GMRES
    # run to the floor, for about two thirds of its Krylov iterations.
    params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
    guess = _perturbed_bubble(params, 0.13, 0.75, step)
    report = solve_profile(params, guess)
    reference = _solve_to_the_floor(monkeypatch, params, guess)
    assert report.converged and report.iterations == reference.iterations
    w, ref = report.solution.samples, reference.solution.samples
    assert np.max(np.abs(w - ref)) <= 1e-11 * np.max(np.abs(ref))
    krylov, ref_krylov = (sum(h.gmres_iterations for h in r.history) for r in (report, reference))
    assert krylov <= 0.8 * ref_krylov


@pytest.mark.parametrize("height, newton_steps", [(3.0, 6), (6.0, 7), (20.0, 9)])
def test_forcing_above_unit_residual(monkeypatch, height, newton_steps):
    # Initial sup residuals of 6, 30 and 380: above 1 the stop is FORCING
    # times the sup norm, below the 2-norm, so every GMRES call iterates.
    # Uncapped, FORCING * 380^2 is above the 2-norm, GMRES returns zero and
    # the 20/cosh solve stalls at its first step.
    params = CylinderParams(n=3, gamma=0.5)
    guess = _grid(lambda t: height / np.cosh(t))
    report = solve_profile(params, guess)
    reference = _solve_to_the_floor(monkeypatch, params, guess)
    assert report.history[0].residual > 5.0
    assert report.converged and report.iterations == reference.iterations == newton_steps
    assert all(h.gmres_iterations >= 1 for h in report.history)
