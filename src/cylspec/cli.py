"""Batch front end: one subcommand per computation, reproducible artifacts.

Each invocation parses its flags into one namespace, which is the
job's config, runs one computation, and writes one artifact, a CSV table
or a JSON document, with the full configuration echoed inside.  Output
is deterministic for a fixed config: summation orders are fixed and
nothing reads the clock.  Exit codes: 0 on success, 2 for a rejected
configuration or an input file that cannot be read or is not a lattice
file (a ``t,re,im`` table on a uniform ``t`` column, or the JSON form),
3 for a numerical failure, the failing error class named in a JSON
report on stdout.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CylspecError, ThresholdError, ValidationError
from .greens import build_greens, solve_convolution
from .grid import DEFAULT_STEP, DEFAULT_T_MAX, GridFunction, write_csv
from .grid import FLOAT_FORMAT as _FMT
from .identities import pohozaev_check, wronskian, wronskian_defect
from .indicial import find_roots
from .nonlinear import solve_profile
from .profiles import bubble, bubble_residual, cylinder_constant, frobenius_fit
from .symbol import CylinderParams, theta

__all__ = ["main", "run"]

# These produce scalar reports with no natural tabular form.
_REPORT_ONLY = ("verify-bubble", "pohozaev", "frobenius")


@dataclass
class JobResult:
    report: dict = field(default_factory=dict)
    grid: GridFunction | None = None
    table: tuple | None = None
    arrays: dict | None = None


def _load_grid(path):
    try:
        if path.endswith(".json"):
            loaded, _ = GridFunction.from_json(path)
            return loaded
        return GridFunction.from_csv(path)
    except OSError as exc:
        raise ValidationError(f"input file not found or unreadable: {exc}") from exc


def _default_guess(cfg):
    if not 0.0 <= cfg.params.kappa < cfg.params.lam:
        raise ValidationError(
            f"kappa {cfg.params.kappa!r} is outside the stable range "
            f"[0, {cfg.params.lam!r})"
        )
    scale = cylinder_constant(cfg.params)
    return GridFunction.from_callable(
        lambda t: scale * bubble(cfg.params, t), cfg.t_min, cfg.t_max, cfg.step
    )


def _job_symbol(cfg):
    xi = np.asarray(cfg.xi, dtype=float)
    vals = np.atleast_1d(np.asarray(theta(cfg.params, cfg.mode, xi), dtype=complex))
    rows = [
        (_FMT % x, _FMT % v.real, _FMT % v.imag) for x, v in zip(xi, vals)
    ]
    return JobResult(
        table=(("xi", "re", "im"), rows),
        arrays={
            "xi": [float(x) for x in xi],
            "theta_re": [float(v.real) for v in vals],
            "theta_im": [float(v.imag) for v in vals],
        },
    )


def _job_poles(cfg):
    roots = find_roots(cfg.params, cfg.mode, count=cfg.count)
    header = ("index", "sigma", "tau", "residue_re", "residue_im")
    listing = [
        dict(zip(header, (r.index, r.sigma, r.tau, r.residue.real, r.residue.imag)))
        for r in roots
    ]
    rows = [(str(d["index"]),) + tuple(_FMT % d[k] for k in header[1:]) for d in listing]
    return JobResult(table=(header, rows), arrays={"roots": listing})


def _job_greens(cfg):
    series = build_greens(cfg.params, cfg.mode, truncation=cfg.truncation)
    # The kernel is even and log-singular at t = 0, so sample (0, t_max].
    n = round(cfg.t_max / cfg.step)
    if n < 1:
        raise ValidationError("t_max must be at least one step for greens")
    t = cfg.step * np.arange(1, n + 1)
    values = GridFunction(cfg.step, cfg.step * n, cfg.step, series(t))
    report = {"regime": series.regime, "tail_bound": series.tail_bound}
    return JobResult(report=report, grid=values)


def _job_solve_linear(cfg):
    source = _load_grid(cfg.source)
    series = build_greens(cfg.params, cfg.mode, truncation=cfg.truncation)
    solution = solve_convolution(series, source)
    return JobResult(report={"tail_bound": series.tail_bound}, grid=solution)


def _job_solve_profile(cfg):
    guess = _load_grid(cfg.guess) if cfg.guess else _default_guess(cfg)
    outcome = solve_profile(
        cfg.params,
        guess,
        tolerance=cfg.tolerance,
        max_iterations=cfg.max_iterations,
    )
    return JobResult(report=outcome.as_metadata(), grid=outcome.solution)


def _job_verify_bubble(cfg):
    if cfg.params.kappa != 0.0:
        raise ValidationError(
            "the closed-form profile solves the kappa = 0 equation; drop --kappa"
        )
    if not cfg.params.is_critical:
        raise ValidationError(
            "the closed-form profile exists at the critical exponent; drop --p"
        )
    profile = GridFunction.from_callable(
        lambda t: bubble(cfg.params, t), cfg.t_min, cfg.t_max, cfg.step
    )
    residual = bubble_residual(cfg.params, profile)
    if residual > cfg.tolerance:
        raise ThresholdError(
            f"profile residual {residual:.3e} exceeds tolerance {cfg.tolerance:.1e}"
        )
    return JobResult(report={"residual": residual, "passed": True})


def _job_pohozaev(cfg):
    if not cfg.params.is_critical:
        raise ValidationError("the identity holds at the critical exponent only")
    report = {}
    if cfg.input:
        solution = _load_grid(cfg.input)
    else:
        outcome = solve_profile(cfg.params, _default_guess(cfg), tolerance=cfg.tolerance)
        solution = outcome.solution
        report.update(outcome.as_metadata())
    checked = pohozaev_check(cfg.params, solution, truncation=cfg.truncation)
    report.update(asdict(checked))
    keys = ("scaled_gradient", "scaled_mass", "scaled_nonlinear")
    report.update(zip(keys, checked.scaled_triple(cfg.params)))
    return JobResult(report=report)


def _job_wronskian(cfg):
    h = _load_grid(cfg.source)
    h_tilde = _load_grid(cfg.source_tilde)
    h.require_same_grid(h_tilde)
    h.require_real()
    h_tilde.require_real()
    series = build_greens(cfg.params, cfg.mode, truncation=cfg.truncation)
    w = solve_convolution(series, h)
    w_tilde = solve_convolution(series, h_tilde)
    tr = wronskian(series, w, w_tilde, h, h_tilde)
    defect = wronskian_defect(series, w, w_tilde, h, h_tilde)
    report = {
        "wronskian_sup": float(np.max(np.abs(tr.samples))),
        "defect_sup": float(np.max(np.abs(defect.samples))),
    }
    return JobResult(report=report, grid=tr)


def _job_frobenius(cfg):
    profile = _load_grid(cfg.input)
    candidates = None
    if cfg.use_roots:
        candidates = find_roots(cfg.params, cfg.mode, count=cfg.truncation)
    fit = frobenius_fit(
        profile,
        window=tuple(cfg.window) if cfg.window else None,
        candidate_roots=candidates,
    )
    return JobResult(report=asdict(fit))


_HANDLERS = {
    "symbol": _job_symbol,
    "poles": _job_poles,
    "greens": _job_greens,
    "solve-linear": _job_solve_linear,
    "solve-profile": _job_solve_profile,
    "verify-bubble": _job_verify_bubble,
    "pohozaev": _job_pohozaev,
    "wronskian": _job_wronskian,
    "frobenius": _job_frobenius,
}


def _render(cfg, result):
    echo = _echo(cfg)
    if cfg.fmt == "json":
        doc = {"metadata": {"config": echo, **result.report}}
        if result.grid is not None:
            doc = result.grid.json_doc(doc["metadata"])
        if result.arrays:
            doc.update(result.arrays)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    table = result.table if result.grid is None else result.grid.csv_table()
    buf = io.StringIO()
    write_csv(buf, *table, {"config": echo, **result.report})
    return buf.getvalue()


def run(config):
    """Execute one job and write its artifact; returns the exit status, 0."""
    result = _HANDLERS[config.command](config)
    text = _render(config, result)
    if config.output is None:
        sys.stdout.write(text)
    else:
        with open(config.output, "w", newline="") as fh:
            fh.write(text)
    return 0


def _add_command(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--n", type=int, required=True, help="dimension, integer >= 2")
    p.add_argument("--gamma", type=float, required=True, help="order in (0, 1)")
    p.add_argument(
        "--p", type=float, default=None, help="profile exponent (default: critical)"
    )
    p.add_argument("--kappa", type=float, default=0.0, help="Hardy shift (default: 0)")
    p.add_argument(
        "--mode", type=int, default=0, help="spherical-harmonic degree (default: 0)"
    )
    p.add_argument(
        "--truncation", type=int, default=12, help="series truncation (default: 12)"
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=1e-6,
        help="Newton residual (solve-profile, pohozaev), profile residual "
        "(verify-bubble) (default: 1e-6)",
    )
    p.add_argument("--output", default=None, help="artifact path (default: stdout)")
    p.add_argument(
        "--format",
        dest="fmt",
        choices=("csv", "json"),
        default="json",
        help="artifact format (default: json)",
    )
    p.add_argument("--t-min", dest="t_min", type=float, default=-DEFAULT_T_MAX)
    p.add_argument("--t-max", dest="t_max", type=float, default=DEFAULT_T_MAX)
    p.add_argument("--step", type=float, default=DEFAULT_STEP)
    return p


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cylspec",
        description=(
            "Spectral toolbox for the cylindrical Hardy operator: symbol "
            "evaluation, indicial roots, Green's kernels, linear and "
            "nonlinear profile solves, and identity checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = _add_command(sub, "symbol", "evaluate the mode symbol on the real axis")
    p.add_argument(
        "--xi", type=float, nargs="+", default=[0.0], help="frequencies (default: 0)"
    )

    p = _add_command(sub, "poles", "indicial roots of the symbol at level kappa")
    p.add_argument(
        "--count", type=int, default=None, help="roots to report (default: truncation)"
    )

    _add_command(sub, "greens", "Green's function series sampled on (0, t_max]")

    p = _add_command(sub, "solve-linear", "solve (Theta - kappa) w = h by convolution")
    p.add_argument("--source", required=True, help="CSV or JSON samples of h")

    p = _add_command(sub, "solve-profile", "Newton solve of the profile equation")
    p.add_argument(
        "--guess", default=None, help="initial guess file (default: scaled bubble)"
    )
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=50)

    _add_command(sub, "verify-bubble", "residual check of the closed-form profile")

    p = _add_command(sub, "pohozaev", "three-way energy identity on a solved profile")
    p.add_argument(
        "--input", default=None, help="solved profile file (default: solve first)"
    )

    p = _add_command(sub, "wronskian", "weighted Wronskian of two solved pairs")
    p.add_argument("--source", required=True, help="samples of the first source h")
    p.add_argument(
        "--source-tilde",
        dest="source_tilde",
        required=True,
        help="samples of the second source",
    )

    p = _add_command(sub, "frobenius", "fit the leading tail term of a profile")
    p.add_argument("--input", required=True, help="profile samples to fit")
    p.add_argument(
        "--window", type=float, nargs=2, default=None, help="fit window (lo hi)"
    )
    p.add_argument(
        "--use-roots",
        dest="use_roots",
        action="store_true",
        help="restrict the fit to computed indicial roots",
    )
    return parser


def _check(args):
    """Reject the flags that CylinderParams does not check, first failure first."""
    if args.tolerance <= 0.0:
        raise ValidationError(f"tolerance must be positive, got {args.tolerance}")
    if args.truncation < 1:
        raise ValidationError(f"truncation must be at least 1, got {args.truncation}")
    if args.step <= 0.0 or args.t_max <= args.t_min:
        raise ValidationError(
            f"grid [{args.t_min}, {args.t_max}] with step {args.step} is empty"
        )
    if args.fmt == "csv" and args.command in _REPORT_ONLY:
        raise ValidationError(f"{args.command} emits a JSON report; use --format json")


def _resolve(args):
    """The parsed flags as the job's config: ``params`` set, ``--count`` resolved, checked."""
    args.params = CylinderParams(n=args.n, gamma=args.gamma, p=args.p, kappa=args.kappa)
    if args.command == "poles" and args.count is None:
        args.count = args.truncation
    _check(args)
    return args


def _echo(args):
    """Flat provenance record embedded in every artifact: the flags, with p resolved."""
    doc = {k: v for k, v in vars(args).items() if k not in ("output", "fmt", "params")}
    doc.update(p=args.params.p, format=args.fmt)
    return doc


def _error_report(args, exc):
    doc = {
        "command": getattr(args, "command", None),
        "error": type(exc).__name__,
        "message": str(exc),
    }
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_resolve(args))
    except ValidationError as exc:
        _error_report(args, exc)
        return 2
    except CylspecError as exc:
        _error_report(args, exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
