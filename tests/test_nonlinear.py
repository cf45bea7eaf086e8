"""Newton solver convergence, basins, and failure modes."""

import numpy as np
import pytest

import cylspec.nonlinear
from cylspec.errors import DivergenceError, NegativityError, ValidationError
from cylspec.grid import GridFunction
from cylspec.identities import pohozaev_check
from cylspec.nonlinear import solve_profile
from cylspec.profiles import bubble, frobenius_fit
from cylspec.symbol import CylinderParams

SIGMA0_K03 = 0.76091823639160877


def _grid(fun, step=2.0**-7):
    return GridFunction.from_callable(lambda t: fun(t) + 0j, -30.0, 30.0, step)


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
    with pytest.raises(DivergenceError):
        solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)), max_iterations=1)


def test_positivity_loss_raises():
    params = CylinderParams(n=3, gamma=0.5)
    with pytest.raises(NegativityError):
        solve_profile(params, _grid(lambda t: 0.02 * np.exp(-0.5 * t**2)))


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
    assert meta["converged"] is True and meta["trivial"] is False
    assert meta["iterations"] == report.iterations


def test_gmres_flag_is_raised(monkeypatch):
    def failing_gmres(op, b, **kwargs):
        return np.zeros_like(b), 1

    monkeypatch.setattr(cylspec.nonlinear, "gmres", failing_gmres)
    params = CylinderParams(n=3, gamma=0.5)
    with pytest.raises(DivergenceError, match="info = 1 at Newton step 1"):
        solve_profile(params, _grid(lambda t: 1.1 / np.cosh(t)))


@pytest.fixture(scope="module")
def stall_guess_solve():
    """(4, 0.75, 0) from a guess whose last GMRES call once ran all restarts.

    Returns the report and the GMRES flag of every Newton step.
    """
    params = CylinderParams(n=4, gamma=0.75)
    c = params.lam ** (1.0 / (params.p - 1.0))
    guess = _grid(
        lambda t: c
        * bubble(params, t)
        * (1.0 + 0.05 * np.cos(0.5 * t) * np.exp(-t * t / 18.0))
    )
    flags = []
    real_gmres = cylspec.nonlinear.gmres

    def spy(*args, **kwargs):
        delta, info = real_gmres(*args, **kwargs)
        flags.append(info)
        return delta, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cylspec.nonlinear, "gmres", spy)
        report = solve_profile(params, guess)
    return params, report, flags


def test_gmres_floor_ends_the_stall(stall_guess_solve):
    _, report, flags = stall_guess_solve
    assert report.converged and report.residual_norm <= 1e-10
    assert report.iterations == 4
    assert flags == [0, 0, 0, 0]


def test_solved_tail_is_clean(stall_guess_solve):
    # Round-off in the residual's product would sit in the tail, where
    # the energy identity measures the decay rate and the fit reads sigma.
    params, report, _ = stall_guess_solve
    assert pohozaev_check(params, report.solution).relative_spread <= 1e-3
    fit = frobenius_fit(report.solution)
    sigma0 = 0.5 * params.n - params.gamma
    assert abs(fit.sigma - sigma0) < 0.01 * sigma0


@pytest.mark.parametrize("n, gamma", [(5, 0.25), (6, 0.9)])
def test_default_fit_window_follows_the_tail(n, gamma):
    # From this guess the solved tail is round-off on the last third of
    # the grid, so the default window has to be placed by magnitude.
    params = CylinderParams(n=n, gamma=gamma)
    c = params.lam ** (1.0 / (params.p - 1.0))
    guess = _grid(
        lambda t: c * bubble(params, t) * (1.0 + 0.13 * np.cos(0.75 * t) * np.exp(-t * t / 18.0))
    )
    fit = frobenius_fit(solve_profile(params, guess).solution)
    sigma0 = 0.5 * n - gamma
    assert abs(fit.sigma - sigma0) <= 1e-6 * sigma0
    assert fit.tau == 0.0
