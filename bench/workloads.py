"""The benchmark's three workloads: inputs, timed rounds, checks.

A workload makes its inputs from the seed, runs whole rounds of the same
operations in a closed loop (each call starts after the previous one
returns), and checks each round's outputs after that round's timing stops.
``run_round`` returns the round's outputs and ``check`` takes them, so the
caller can drop them once checked and memory holds one round at a time.  Each timed operation is
one call into a public cylspec function, or one ``python -m cylspec``
process.  Checks compare with ``reference`` (mpmath, scipy.special,
closed forms) or with a property the method must have; none compares
with stored program output.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import reference as ref
import cylspec  # traced calls go through the package namespace, which the tracer wraps
from cylspec import CylinderParams, GridFunction

DEFAULT_STEP = 2.0**-7  # 7681 points on [-30, 30]; 7681 is prime
REFINED_STEP = 2.0**-8  # 15361 points; 15361 is prime


class JobFailed(Exception):
    """A CLI job exited with a status other than 0."""


class Ops:
    """Times operations and counts the attempted and the failed ones.

    ``after``, if given, is called with each operation's duration once
    its timing has stopped.
    """

    def __init__(self, after=None):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.last = None  # duration of the last operation that succeeded
        self.after = after

    def call(self, kind, fn, *args):
        """Time fn(*args); any exception it raises is a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            out = None
        else:
            self.last = time.perf_counter() - t0
            self.samples[kind].append(self.last)
        if self.after is not None:
            self.after(time.perf_counter() - t0)
        return out

    def skip(self, kind, count, reason):
        """Operations that cannot run because one they depend on failed."""
        self.attempted += count
        self.failed += count
        self.errors.append(f"{kind}: {count} skipped after {reason}")

    def median(self, kind):
        samples = self.samples[kind]
        return statistics.median(samples) if samples else None


def _rng(seed, *salt):
    return np.random.default_rng([seed, *salt])


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def gaussian_mixture(rng, step=DEFAULT_STEP, bumps=3):
    """Sum of Gaussian bumps: amplitude 0.5-1.5, centre -3..3, width 0.5-1.5."""
    amp = rng.uniform(0.5, 1.5, bumps)
    centre = rng.uniform(-3.0, 3.0, bumps)
    width = rng.uniform(0.5, 1.5, bumps)

    def h(t):
        return sum(a * np.exp(-0.5 * ((t - c) / w) ** 2) for a, c, w in zip(amp, centre, width))

    return GridFunction.from_callable(h, step=step)


# ---------------------------------------------------------------- spectral_sweep

# (n, gamma, kappa, mode, regime).  Theta_m(0), the mode threshold, is in
# the comment; every kappa > 0 sits at least 25% away from it, and the
# per-round jitter (gamma +- 0.004, kappa +- 2%) keeps it there.
SWEEP_CASES = [
    (2, 0.10, 0.30, 0, "stable"),  # Theta_0(0) = 0.7745
    (3, 0.50, 0.30, 0, "stable"),  # 0.6366
    (5, 0.25, 0.20, 2, "stable"),  # 1.882
    (6, 0.90, 0.50, 3, "stable"),  # 18.16
    (4, 0.60, 0.00, 1, "zero"),  # 2.364
    (2, 0.90, 0.00, 0, "zero"),  # 0.00977
    (3, 0.50, 1.00, 0, "unstable"),  # 0.6366
    (4, 0.40, 3.50, 2, "unstable"),  # 2.437
]
SWEEP_TRUNCATION = 12
ORACLE_T = (1.0, 2.0, 4.0)
KERNEL_PARAMS = (5, 0.5)  # integer c - a - b in both kernel families
K0_PANEL = np.geomspace(1e-4, 1e-1, 7)
RIESZ_PANEL = 1.0 - np.geomspace(1e-1, 1e-4, 4)


class SpectralSweep:
    """Symbol, roots, Green's series, linear solves, oracle and kernels."""

    def __init__(self, seed, cases=SWEEP_CASES, oracle_t=ORACLE_T):
        self.seed = seed
        self.cases = cases
        self.oracle_t = oracle_t

    def prepare(self, r):
        """Round r's inputs: jittered parameters and two sources per stable case."""
        out = []
        for i, (n, gamma, kappa, mode, regime) in enumerate(self.cases):
            rng = _rng(self.seed, r, i)
            gamma_r = gamma + 0.004 * rng.uniform(-1.0, 1.0)
            kappa_r = kappa * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
            params = CylinderParams(n=n, gamma=gamma_r, kappa=kappa_r)
            sources = (gaussian_mixture(rng), gaussian_mixture(rng)) if regime != "unstable" else ()
            out.append((params, mode, regime, sources))
        return out

    def run_round(self, inputs, ops):
        records = []
        for params, mode, regime, sources in inputs:
            rec = {"params": params, "mode": mode, "regime": regime}
            records.append(rec)
            series = ops.call(
                "greens_build", cylspec.build_greens, params, mode, SWEEP_TRUNCATION
            )
            rec["series"] = series
            if regime == "unstable":
                continue
            if series is None:
                ops.skip("case", 2 + 1 + len(self.oracle_t), "a failed build")
                continue
            rec["solves"] = []
            for h in sources:
                pair = ops.call(
                    "linear_solve",
                    lambda h=h: (
                        cylspec.solve_convolution(series, h),
                        cylspec.solve_ode_system(series, h),
                    ),
                )
                rec["solves"].append((h, pair))
            (h, pair), (h2, pair2) = rec["solves"]
            if pair is None or pair2 is None:
                ops.skip("wronskian", 1, "a failed solve")
            else:
                w, w2 = pair[0], pair2[0]
                rec["wronskian"] = ops.call(
                    "wronskian",
                    lambda: (
                        cylspec.wronskian(series, w, w2, h, h2),
                        cylspec.wronskian_defect(series, w, w2, h, h2),
                    ),
                )
            rec["oracle"] = [
                (t, ops.call("oracle", cylspec.greens_quadrature_oracle, params, mode, t))
                for t in self.oracle_t
            ]
        kp = CylinderParams(n=KERNEL_PARAMS[0], gamma=KERNEL_PARAMS[1])
        kernels = ops.call(
            "kernel_eval",
            lambda: (
                cylspec.kernel_K0(kp, K0_PANEL),
                cylspec.riesz_kernel_theta(kp, RIESZ_PANEL),
            ),
        )
        return {"cases": records, "kernels": kernels}

    def stage_metrics(self, ops):
        return {
            "greens_build_s": ops.median("greens_build"),
            "linear_solve_s": ops.median("linear_solve"),
            "oracle_s": ops.median("oracle"),
            "kernel_eval_s": ops.median("kernel_eval"),
            "wronskian_s": ops.median("wronskian"),
        }

    def check(self, out):
        bad = []
        for rec in out["cases"]:
            bad += check_sweep_case(rec)
        if out["kernels"] is not None:
            bad += check_kernels(*KERNEL_PARAMS, *out["kernels"])
        return bad


def check_roots(params, mode, roots, regime):
    """Roots against the symbol rebuilt in mpmath and the window structure."""
    bad = []
    n, g, kappa = params.n, params.gamma, params.kappa
    a, b = ref.mode_constants(n, g, mode)
    label = f"n={n} gamma={g:.4f} kappa={kappa:.4f} mode={mode}"
    for j, root in enumerate(roots):
        z = complex(root.tau, root.sigma)
        miss = abs(complex(ref.theta_mp(n, g, mode, z)) - kappa)
        if not miss <= 1e-8:
            bad.append(f"{label}: root {j} at {z} has |Theta - kappa| = {miss:.2e} > 1e-8")
        if regime == "zero":
            exact = 2.0 * b + 2.0 * j
            if not (abs(root.sigma - exact) <= 1e-12 * exact and root.tau == 0.0):
                bad.append(f"{label}: root {j} = {z}, expected 2B+2j = {exact}")
        elif j >= 1 and not 2.0 * a + 2.0 * (j - 1) < root.sigma < 2.0 * b + 2.0 * j:
            bad.append(f"{label}: root {j} sigma={root.sigma} outside its window")
    if regime == "stable" and not 0.0 < roots[0].sigma < 2.0 * b:
        bad.append(f"{label}: first root sigma={roots[0].sigma} outside (0, 2B)")
    if regime == "unstable" and not (roots[0].sigma == 0.0 and roots[0].tau > 0.0):
        bad.append(f"{label}: first root {roots[0].z} is not a real pair")
    return bad


def check_sweep_case(rec):
    series = rec["series"]
    if series is None:
        return []
    params, mode = rec["params"], rec["mode"]
    label = f"n={params.n} gamma={params.gamma:.4f} kappa={params.kappa:.4f} mode={mode}"
    bad = check_roots(params, mode, series.roots, rec["regime"])
    for h, pair in rec.get("solves", []):
        if pair is not None:
            gap = _relative_gap(pair[1].samples, pair[0].samples)
            if not gap <= 1e-10:
                bad.append(f"{label}: convolution and ODE routes differ by {gap:.2e}")
    wr = rec.get("wronskian")
    if wr is not None:
        (h, pair), (h2, pair2) = rec["solves"]
        w, w2 = pair[0].samples.real, pair2[0].samples.real
        drive = 2.0 * (h2.samples.real * w - h.samples.real * w2)
        ratio = float(np.max(np.abs(wr[1].samples.real)) / np.max(np.abs(drive)))
        if not ratio <= 1e-3:
            bad.append(f"{label}: Wronskian defect is {ratio:.2e} of its drive")
    for t, value in rec.get("oracle", []):
        if value is not None:
            gap = abs(series(t) - value) / abs(value)
            if not gap <= 1e-6:
                bad.append(f"{label}: series and oracle differ by {gap:.2e} at t={t}")
    return bad


def check_kernels(n, g, k0, riesz):
    bad = []
    for t, v in zip(K0_PANEL, k0):
        exact = ref.kernel_k0_mp(n, g, t)
        if not abs(v - exact) <= 1e-10 * abs(exact):
            bad.append(f"kernel_K0(t={t:.1e}) = {v!r}, mpmath {exact!r}")
    for z, v in zip(RIESZ_PANEL, riesz):
        exact = ref.riesz_theta_mp(n, g, z)
        if not abs(v - exact) <= 1e-10 * abs(exact):
            bad.append(f"riesz_kernel_theta(z={z}) = {v!r}, mpmath {exact!r}")
    return bad


# ---------------------------------------------------------------- profile_newton

PROFILE_CASES = [(3, 0.5, 0.0), (4, 0.75, 0.0), (3, 0.5, 0.3), (2, 0.3, 0.2)]
PROFILE_STEPS = (DEFAULT_STEP, REFINED_STEP)
# Guess perturbation ranges.  Inside them every solve takes 4 Newton steps
# and every GMRES call converges; see README for the guesses left out.
EPS_RANGE = (0.10, 0.16)
FREQ_RANGE = (0.5, 1.0)


def perturbed_guess(n, gamma, kappa, eps, freq, step):
    """Scaled bubble times 1 + eps cos(f t) exp(-t^2/18) on [-30, 30]."""
    p = (n + 2.0 * gamma) / (n - 2.0 * gamma)
    lam = ref.hardy_constant_mp(n, gamma)
    scale = ((lam - kappa) / lam) ** (1.0 / (p - 1.0))

    def guess(t):
        return scale * ref.bubble_closed_form(n, gamma, t) * (
            1.0 + eps * np.cos(freq * t) * np.exp(-t * t / 18.0)
        )

    return GridFunction.from_callable(guess, step=step)


def guess_parameters(rng):
    return rng.uniform(*EPS_RANGE), rng.uniform(*FREQ_RANGE)


class ProfileNewton:
    """Newton-GMRES profile solves, then the identities and tail fits."""

    def __init__(self, seed, cases=PROFILE_CASES):
        self.seed = seed
        self.cases = cases
        self.default_solve_s = []  # solve times on the 7681-point grid

    def prepare(self, r):
        """Round r's guesses, one seeded (eps, f) per case and grid.

        The GMRES iteration count moves by about 15% between nearby
        guesses; fresh draws for every solve average that out of a run.
        """
        inputs = []
        for i, (n, gamma, kappa) in enumerate(self.cases):
            params = CylinderParams(n=n, gamma=gamma, kappa=kappa)
            for j, step in enumerate(PROFILE_STEPS):
                eps, freq = guess_parameters(_rng(self.seed, r, i, j))
                guess = perturbed_guess(n, gamma, kappa, eps, freq, step)
                bub = None
                if kappa == 0.0:
                    bub = GridFunction.from_callable(
                        lambda t: ref.bubble_unit(n, gamma, t), step=step
                    )
                inputs.append((params, step, guess, bub))
        return inputs

    def run_round(self, inputs, ops):
        out = []
        for params, step, guess, bub in inputs:
            report = ops.call("profile_solve", cylspec.solve_profile, params, guess, 1e-10)
            if report is not None and step == DEFAULT_STEP:
                self.default_solve_s.append(ops.last)
            out.append({"params": params, "step": step, "report": report, "bubble": bub})
        for rec in out:
            if rec["params"].kappa != 0.0:
                continue
            if rec["report"] is None:
                ops.skip("pohozaev", 1, "a failed solve")
            else:
                rec["pohozaev"] = ops.call(
                    "identity_check", cylspec.pohozaev_check, rec["params"], rec["report"].solution
                )
            rec["bubble_residual"] = ops.call(
                "bubble_residual", cylspec.bubble_residual, rec["params"], rec["bubble"]
            )
        for rec in out:
            if rec["report"] is None:
                ops.skip("tail_fit", 1, "a failed solve")
            else:
                rec["fit"] = ops.call("tail_fit", cylspec.frobenius_fit, rec["report"].solution)
        return out

    def stage_metrics(self, ops):
        default = self.default_solve_s
        # The medians of pohozaev_check, bubble_residual and frobenius_fit did
        # not repeat within a tenth over ten seeds (README); only workload_s
        # and the per-layer self times cover those calls.
        return {"profile_solve_s": statistics.median(default) if default else None}

    def check(self, out):
        return check_profile_round(out)


def check_profile(params, step, w):
    """Residual with an independent symbol, positivity, evenness, bubble distance."""
    n, g, kappa = params.n, params.gamma, params.kappa
    label = f"n={n} gamma={g} kappa={kappa} step={step}"
    bad = []
    peak = float(np.max(np.abs(w)))
    res = ref.profile_residual(n, g, kappa, step, w)
    if not res <= 1e-9:
        bad.append(f"{label}: profile residual {res:.2e} > 1e-9")
    if not float(np.min(w)) >= -1e-12 * peak:
        bad.append(f"{label}: solution is negative, min {np.min(w):.2e}")
    if not float(np.max(np.abs(w - w[::-1]))) <= 1e-14 * peak:
        bad.append(f"{label}: solution is not even")
    if kappa == 0.0:
        t = -30.0 + step * np.arange(w.size)
        dist = float(np.max(np.abs(w - ref.bubble_closed_form(n, g, t))))
        if not dist <= 1e-4:
            bad.append(f"{label}: {dist:.2e} from the closed-form bubble")
    return bad


def check_tail_rate(params, sigma):
    root = ref.first_root_mp(params.n, params.gamma, params.kappa)
    if not abs(sigma - root) <= 0.01 * root:
        return [f"n={params.n} gamma={params.gamma} kappa={params.kappa}: "
                f"tail rate {sigma} is not within 1% of sigma_0 = {root}"]
    return []


def check_profile_round(out):
    bad = []
    spreads = defaultdict(dict)
    for rec in out:
        params, step, report = rec["params"], rec["step"], rec["report"]
        if report is not None:
            bad += check_profile(params, step, report.solution.samples.real)
        if rec.get("fit") is not None:
            bad += check_tail_rate(params, rec["fit"].sigma)
        br = rec.get("bubble_residual")
        if br is not None and not br <= 1e-6:
            bad.append(f"n={params.n} gamma={params.gamma}: bubble_residual {br:.2e} > 1e-6")
        if rec.get("pohozaev") is not None:
            spreads[(params.n, params.gamma)][step] = rec["pohozaev"].relative_spread
    for key, by_step in spreads.items():
        for step, spread in by_step.items():
            if not spread <= 1e-3:
                bad.append(f"{key}: Pohozaev spread {spread:.2e} > 1e-3 at step {step}")
        if len(by_step) == 2:
            ratio = by_step[DEFAULT_STEP] / by_step[REFINED_STEP]
            if not 2.5 <= ratio <= 6.0:
                bad.append(f"{key}: Pohozaev spread contracts {ratio:.2f}x under step halving")
    return bad


# ---------------------------------------------------------------- cli_pipeline

CLI_PARAMS = ["--n", "3", "--gamma", "0.5"]
CLI_KAPPA = ["--kappa", "0.3"]


def cli_jobs(xi):
    """(name, argv) of one round; every job writes its artifact to `name`."""
    xi_args = ["--xi"] + [repr(float(x)) for x in xi]
    return [
        ("symbol.json", ["symbol", *CLI_PARAMS, *xi_args]),
        ("poles.json", ["poles", *CLI_PARAMS, *CLI_KAPPA, "--count", "12"]),
        ("greens.json", ["greens", *CLI_PARAMS, *CLI_KAPPA]),
        ("linear.csv", ["solve-linear", *CLI_PARAMS, *CLI_KAPPA, "--source", "h.csv",
                        "--format", "csv"]),
        ("wronskian.json", ["wronskian", *CLI_PARAMS, *CLI_KAPPA, "--source", "h.csv",
                            "--source-tilde", "h2.csv"]),
        ("profile.csv", ["solve-profile", *CLI_PARAMS, "--guess", "guess.csv",
                         "--tolerance", "1e-10", "--format", "csv"]),
        ("bubble.json", ["verify-bubble", *CLI_PARAMS]),
        ("pohozaev.json", ["pohozaev", *CLI_PARAMS, "--input", "profile.csv"]),
        ("frobenius.json", ["frobenius", *CLI_PARAMS, "--input", "profile.csv"]),
        ("poles-repeat.json", ["poles", *CLI_PARAMS, *CLI_KAPPA, "--count", "12"]),
    ]


class CliPipeline:
    """Each job is a fresh ``python -m cylspec`` process, one at a time."""

    def __init__(self, seed, workdir, src):
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=src)
        self.jobs = None

    def prepare(self, r):
        if r == 0:
            rng = _rng(self.seed, 11)
            gaussian_mixture(rng).to_csv(os.path.join(self.workdir, "h.csv"))
            gaussian_mixture(rng).to_csv(os.path.join(self.workdir, "h2.csv"))
            eps, freq = guess_parameters(rng)
            perturbed_guess(3, 0.5, 0.0, eps, freq, DEFAULT_STEP).to_csv(
                os.path.join(self.workdir, "guess.csv")
            )
            xi = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 20.0, 7))])
            self.jobs = cli_jobs(xi)
        return self.jobs

    def run_round(self, jobs, ops):
        out = {}
        for name, argv in jobs:
            full = [sys.executable, "-m", "cylspec", *argv, "--output", name]
            done = ops.call("cli_job", self._spawn, full)
            out[name] = {"argv": argv, "wall": ops.last if done else None}
        for name, rec in out.items():
            if rec["wall"] is not None:
                with open(os.path.join(self.workdir, name), "rb") as fh:
                    rec["bytes"] = fh.read()
        return out

    def _spawn(self, argv):
        proc = subprocess.run(
            argv, cwd=self.workdir, env=self.env, capture_output=True, timeout=90
        )
        if proc.returncode != 0:
            tail = (proc.stdout + proc.stderr).decode(errors="replace")[-400:]
            raise JobFailed(f"exit {proc.returncode}: {tail}")
        return True

    def stage_metrics(self, ops):
        return {"cli_job_s": ops.median("cli_job")}

    def check(self, out):
        return check_cli_round(out)


def _artifact(out, name):
    raw = out.get(name, {}).get("bytes")
    if raw is None:
        return None
    if name.endswith(".json"):
        return json.loads(raw)
    return raw.decode()


class _Root:
    def __init__(self, sigma, tau):
        self.sigma, self.tau = sigma, tau
        self.z = complex(tau, sigma)


def read_csv_samples(text):
    """(t, re) columns of a cylspec CSV artifact, parsed without cylspec."""
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    if rows[0] != ["t", "re", "im"]:
        raise ValueError(f"unexpected header {rows[0]}")
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return data[:, 0], data[:, 1]


def check_cli_round(out):
    """Artifacts of one round, parsed and checked without cylspec."""
    bad = []
    try:
        n, g, kappa = 3, 0.5, 0.3
        if out.get("poles.json", {}).get("bytes") != out.get("poles-repeat.json", {}).get("bytes"):
            bad.append("repeated poles job is not byte-identical")
        sym = _artifact(out, "symbol.json")
        if sym is not None:
            for xi, re_, im_ in zip(sym["xi"], sym["theta_re"], sym["theta_im"]):
                exact = complex(ref.theta_mp(n, g, 0, xi))
                if not abs(complex(re_, im_) - exact) <= 1e-12 * abs(exact):
                    bad.append(f"symbol at xi={xi}: {re_} + {im_}i, mpmath {exact}")
            lam = ref.hardy_constant_mp(n, g)
            if not abs(sym["theta_re"][0] - lam) <= 1e-12 * lam:
                bad.append(f"symbol at xi=0 is {sym['theta_re'][0]}, Lambda = {lam}")
        poles = _artifact(out, "poles.json")
        if poles is not None:
            roots = [_Root(r["sigma"], r["tau"]) for r in poles["roots"]]
            bad += check_roots(CylinderParams(n=n, gamma=g, kappa=kappa), 0, roots, "stable")
        bub = _artifact(out, "bubble.json")
        if bub is not None and not (bub["metadata"]["passed"] is True
                                    and bub["metadata"]["residual"] <= 1e-6):
            bad.append(f"verify-bubble report {bub['metadata']}")
        prof = _artifact(out, "profile.csv")
        if prof is not None:
            t, w = read_csv_samples(prof)
            bad += check_profile(CylinderParams(n=n, gamma=g), t[1] - t[0], w)
        poh = _artifact(out, "pohozaev.json")
        if poh is not None and not poh["metadata"]["relative_spread"] <= 1e-3:
            bad.append(f"pohozaev spread {poh['metadata']['relative_spread']} > 1e-3")
        fro = _artifact(out, "frobenius.json")
        if fro is not None:
            bad += check_tail_rate(CylinderParams(n=n, gamma=g), fro["metadata"]["sigma"])
        for name in ("greens.json", "wronskian.json"):
            doc = _artifact(out, name)
            if doc is not None and not np.all(np.isfinite(doc["re"])):
                bad.append(f"{name} holds non-finite samples")
        lin = _artifact(out, "linear.csv")
        if lin is not None and not np.all(np.isfinite(read_csv_samples(lin)[1])):
            bad.append("linear.csv holds non-finite samples")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        bad.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return bad
