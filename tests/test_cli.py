"""End-to-end command-line checks: artifacts, determinism, exit codes."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import cylspec
from cylspec import cli
from cylspec.cli import main
from cylspec.greens import build_greens, solve_convolution
from cylspec.grid import GridFunction
from cylspec.identities import PohozaevReport
from cylspec.profiles import bubble, cylinder_constant
from cylspec.symbol import CylinderParams


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_symbol_value_at_zero(capsys):
    code, out = _run(
        capsys, ["symbol", "--n", "3", "--gamma", "0.5", "--mode", "0", "--xi", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["xi"] == [0.0]
    assert abs(doc["theta_re"][0] - 2.0 / np.pi) <= 1e-14
    config = doc["metadata"]["config"]
    assert config["command"] == "symbol"
    assert config["gamma"] == 0.5
    assert config["p"] == 2.0


def test_poles_csv_table(capsys):
    code, out = _run(
        capsys,
        [
            "poles",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--kappa",
            "0",
            "--count",
            "5",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    echo = json.loads(lines[0][2:])
    assert echo["config"]["count"] == 5
    assert lines[1] == "index,sigma,tau,residue_re,residue_im"
    rows = [line.split(",") for line in lines[2:]]
    sigmas = [float(r[1]) for r in rows]
    taus = [float(r[2]) for r in rows]
    assert np.allclose(sigmas, [1.0, 3.0, 5.0, 7.0, 9.0], rtol=0, atol=1e-8)
    assert taus == [0.0] * 5


def test_poles_past_float_factorial(capsys):
    # At kappa = 0 the roots are symbol zeros, whose derivative carries j!;
    # the 172nd root needs 171!, which exceeds the float range.
    code, out = _run(capsys, ["poles", "--n", "3", "--gamma", "0.5", "--count", "172"])
    assert code == 0
    assert len(json.loads(out)["roots"]) == 172


def test_greens_artifact_round_trip(tmp_path, capsys):
    out_path = tmp_path / "g.json"
    code, _ = _run(
        capsys,
        [
            "greens",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--kappa",
            "0.3",
            "--t-max",
            "6",
            "--truncation",
            "30",
            "--output",
            str(out_path),
        ],
    )
    assert code == 0
    loaded, meta = GridFunction.from_json(out_path)
    assert meta["config"]["kappa"] == 0.3
    assert meta["regime"] == "stable"
    # Origin excluded: the kernel is log-singular there and even in t.
    assert loaded.t_min == loaded.step
    series = build_greens(CylinderParams(3, 0.5, kappa=0.3), 0, truncation=30)
    assert np.array_equal(loaded.samples.real, series(loaded.t))


def test_solve_linear_matches_library(tmp_path, capsys):
    source = GridFunction.from_callable(lambda t: np.exp(-2.0 * np.abs(t)))
    src_path = tmp_path / "h.csv"
    source.to_csv(src_path)
    out_path = tmp_path / "w.csv"
    code, _ = _run(
        capsys,
        [
            "solve-linear",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--kappa",
            "0.3",
            "--source",
            str(src_path),
            "--truncation",
            "40",
            "--output",
            str(out_path),
            "--format",
            "csv",
        ],
    )
    assert code == 0
    loaded = GridFunction.from_csv(out_path)
    series = build_greens(CylinderParams(3, 0.5, kappa=0.3), 0, truncation=40)
    direct = solve_convolution(series, source)
    # 17 significant digits round-trip binary64 exactly.
    assert np.array_equal(loaded.samples, direct.samples)


def test_solve_profile_artifact(tmp_path, capsys):
    out_path = tmp_path / "profile.json"
    code, _ = _run(
        capsys,
        [
            "solve-profile",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--tolerance",
            "1e-10",
            "--output",
            str(out_path),
        ],
    )
    assert code == 0
    solution, meta = GridFunction.from_json(out_path)
    assert meta["converged"] is True
    assert meta["residual_norm"] <= 1e-10
    assert meta["trivial"] is False
    exact = 1.0 / np.cosh(solution.t)
    assert float(np.max(np.abs(solution.samples.real - exact))) <= 1e-8


def test_verify_bubble_report_and_gate(capsys):
    code, out = _run(capsys, ["verify-bubble", "--n", "3", "--gamma", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["passed"] is True
    assert doc["metadata"]["residual"] <= 1e-6

    code, out = _run(
        capsys,
        ["verify-bubble", "--n", "3", "--gamma", "0.5", "--tolerance", "1e-15"],
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "ThresholdError"
    assert "residual" in doc["message"]


def test_pohozaev_report(tmp_path, capsys):
    prof_path = tmp_path / "profile.csv"
    code, _ = _run(
        capsys,
        [
            "solve-profile",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--tolerance",
            "1e-10",
            "--output",
            str(prof_path),
            "--format",
            "csv",
        ],
    )
    assert code == 0
    code, out = _run(
        capsys,
        ["pohozaev", "--n", "3", "--gamma", "0.5", "--input", str(prof_path)],
    )
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["relative_spread"] <= 1e-3
    third = np.pi / 6.0
    for key in ("scaled_gradient", "scaled_mass", "scaled_nonlinear"):
        assert abs(meta[key] - third) <= 1e-3


def test_wronskian_defect_report(tmp_path, capsys):
    first = GridFunction.from_callable(lambda t: np.exp(-((t - 1.0) ** 2)))
    second = GridFunction.from_callable(lambda t: np.exp(-((t + 2.0) ** 2) / 2.0))
    p1 = tmp_path / "h.csv"
    p2 = tmp_path / "ht.csv"
    first.to_csv(p1)
    second.to_csv(p2)
    code, out = _run(
        capsys,
        [
            "wronskian",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--kappa",
            "0.3",
            "--source",
            str(p1),
            "--source-tilde",
            str(p2),
            "--truncation",
            "20",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    values = np.array(doc["re"])
    assert doc["metadata"]["wronskian_sup"] == pytest.approx(np.max(np.abs(values)))
    # Centered-difference defect at the default step.
    assert doc["metadata"]["defect_sup"] <= 5e-3


def test_wronskian_rejects_a_wide_source_before_solving(tmp_path, capsys, monkeypatch):
    # The Wronskian needs sources that decay to 1e-10 of their peak; a
    # source at 1e-8 fails in the first solve's decay check, whatever
    # --tolerance says, before any convolution runs.
    wide = GridFunction.from_callable(lambda t: np.exp(-((t / 30.0) ** 2) * np.log(1e8)))
    first = GridFunction.from_callable(lambda t: np.exp(-(t**2)))
    wide.to_csv(tmp_path / "wide.csv")
    first.to_csv(tmp_path / "h.csv")

    def no_convolution(*args):
        raise AssertionError("solved before the decay check")

    monkeypatch.setattr("cylspec.greens.fftconvolve", no_convolution)
    code, out = _run(
        capsys,
        ["wronskian", "--n", "3", "--gamma", "0.5", "--kappa", "0.3",
         "--source", str(tmp_path / "wide.csv"), "--source-tilde", str(tmp_path / "h.csv")],
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "WindowError" and "above 1.0e-10" in doc["message"]


def test_wronskian_job_sweeps_each_source_once(tmp_path, capsys, monkeypatch, cold):
    # The job's defect recomputes the Wronskian it reports from the
    # memoized components: one component sweep per source, not a second
    # pair inside wronskian_defect.
    GridFunction.from_callable(lambda t: np.exp(-((t - 1.0) ** 2))).to_csv(tmp_path / "h.csv")
    GridFunction.from_callable(lambda t: np.exp(-(t**2) / 2.0)).to_csv(tmp_path / "h2.csv")
    calls = []
    sweep = cylspec.greens._sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr("cylspec.greens._sweep", counted)
    code, _ = _run(
        capsys,
        ["wronskian", "--n", "3", "--gamma", "0.5", "--kappa", "0.3",
         "--source", str(tmp_path / "h.csv"), "--source-tilde", str(tmp_path / "h2.csv"),
         "--output", str(tmp_path / "w.json")],
    )
    assert code == 0
    assert len(calls) == 2


def test_wronskian_rejects_a_complex_source_before_solving(tmp_path, capsys, monkeypatch):
    GridFunction.from_callable(lambda t: np.exp(-(t**2)) * (1.0 + 1e-3j)).to_csv(tmp_path / "c.csv")
    GridFunction.from_callable(lambda t: np.exp(-(t**2))).to_csv(tmp_path / "h.csv")
    calls = []
    monkeypatch.setattr("cylspec.cli.solve_convolution", lambda *args: calls.append(args))
    for source, tilde in (("c.csv", "h.csv"), ("h.csv", "c.csv")):
        code, out = _run(
            capsys,
            ["wronskian", "--n", "3", "--gamma", "0.5", "--kappa", "0.3",
             "--source", str(tmp_path / source), "--source-tilde", str(tmp_path / tilde)],
        )
        assert code == 2 and json.loads(out)["error"] == "ValidationError"
    assert calls == []


def test_real_only_jobs_reject_complex_files(tmp_path, capsys):
    # Profiles and the Wronskian's sources are real; a file with a nonzero
    # imaginary column is rejected instead of read as its real part.
    # solve-linear solves a complex source.
    params = CylinderParams(n=3, gamma=0.5)
    profile = GridFunction.from_callable(lambda t: bubble(params, t))
    profile = profile.with_samples(cylinder_constant(params) * profile.samples)
    profile.with_samples(profile.samples * (1.0 + 1e-3j)).to_csv(tmp_path / "c.csv")
    path = str(tmp_path / "c.csv")
    base = ["--n", "3", "--gamma", "0.5"]
    for argv in (
        ["frobenius", *base, "--input", path],
        ["solve-profile", *base, "--guess", path],
        ["pohozaev", *base, "--input", path],
        ["wronskian", *base, "--kappa", "0.3", "--source", path, "--source-tilde", path],
    ):
        code, out = _run(capsys, argv)
        assert code == 2, argv[0]
        assert json.loads(out)["error"] == "ValidationError", argv[0]
    code, _ = _run(
        capsys,
        ["solve-linear", *base, "--kappa", "0.3", "--source", path,
         "--output", str(tmp_path / "w.csv"), "--format", "csv"],
    )
    assert code == 0


def test_malformed_input_files_exit_2(tmp_path, capsys):
    # Lattice files from outside the program, and paths that cannot be read,
    # end in the JSON error report with exit code 2, not in a traceback.
    files = {
        "abc.csv": "t,re,im\n0,1,0\n0.5,abc,0\n1,3,0\n",
        "uneven.csv": "t,re,im\n0,1,0\n0.1,2,0\n0.5,3,0\n1.0,4,0\n",
        "no-im.json": json.dumps({"grid": {"t_min": 0.0, "t_max": 1.0, "step": 0.5},
                                  "re": [1.0, 2.0, 3.0]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for path in [*(tmp_path / name for name in files), tmp_path]:
        code, out = _run(
            capsys,
            ["solve-linear", "--n", "3", "--gamma", "0.5", "--kappa", "0.3",
             "--source", str(path)],
        )
        assert code == 2, path.name
        assert json.loads(out)["error"] == "ValidationError", path.name


def test_solve_linear_rejects_a_wide_source(tmp_path, capsys):
    # solve-linear, like the library, needs a source at 1e-10 of its peak
    # at the window's ends; --tolerance does not loosen that.
    wide = GridFunction.from_callable(lambda t: np.exp(-((t / 30.0) ** 2) * np.log(1e8)))
    wide.to_csv(tmp_path / "wide.csv")
    code, out = _run(
        capsys,
        ["solve-linear", "--n", "3", "--gamma", "0.5", "--kappa", "0.3",
         "--source", str(tmp_path / "wide.csv"), "--tolerance", "1e-6"],
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "WindowError" and "above 1.0e-10" in doc["message"]


def test_frobenius_on_solved_profile(tmp_path, capsys):
    prof_path = tmp_path / "profile.csv"
    code, _ = _run(
        capsys,
        [
            "solve-profile",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--kappa",
            "0.3",
            "--tolerance",
            "1e-10",
            "--output",
            str(prof_path),
            "--format",
            "csv",
        ],
    )
    assert code == 0
    code, out = _run(
        capsys,
        [
            "frobenius",
            "--n",
            "3",
            "--gamma",
            "0.5",
            "--kappa",
            "0.3",
            "--input",
            str(prof_path),
            "--use-roots",
        ],
    )
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert abs(meta["sigma"] - 0.76091823639160877) <= 1e-6
    assert meta["tau"] == 0.0
    assert meta["residual"] <= 0.05


def test_profile_reads_back_from_json_as_from_csv(tmp_path, capsys):
    # solve-profile's default artifact is JSON; pohozaev and frobenius read
    # it back to the same reports as the CSV artifact gives.
    base = ["--n", "3", "--gamma", "0.5"]
    reports = {}
    for fmt in ("json", "csv"):
        path = str(tmp_path / f"profile.{fmt}")
        flags = [] if fmt == "json" else ["--format", "csv"]
        code, _ = _run(
            capsys, ["solve-profile", *base, "--tolerance", "1e-10", "--output", path, *flags]
        )
        assert code == 0
        for command in ("pohozaev", "frobenius"):
            code, out = _run(capsys, [command, *base, "--input", path])
            assert code == 0
            meta = json.loads(out)["metadata"]
            assert meta.pop("config")["input"] == path
            reports[fmt, command] = meta
    for command in ("pohozaev", "frobenius"):
        assert reports["json", command] == reports["csv", command]


def test_pohozaev_without_input_solves_first(capsys):
    code, out = _run(capsys, ["pohozaev", "--n", "3", "--gamma", "0.5"])
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["config"]["input"] is None
    solve = {"residual_norm", "iterations", "converged", "trivial"}
    identity = {f.name for f in dataclasses.fields(PohozaevReport)}
    scaled = {"scaled_gradient", "scaled_mass", "scaled_nonlinear"}
    assert set(meta) == {"config"} | solve | identity | scaled
    assert meta["converged"] is True and meta["residual_norm"] <= 1e-6
    assert meta["relative_spread"] <= 1e-3


def test_validation_exit_codes(capsys):
    code, out = _run(
        capsys, ["solve-profile", "--n", "3", "--gamma", "0.5", "--kappa", "0.9"]
    )
    assert code == 2
    assert json.loads(out)["error"] == "ValidationError"

    code, out = _run(
        capsys, ["verify-bubble", "--n", "3", "--gamma", "0.5", "--format", "csv"]
    )
    assert code == 2

    code, out = _run(capsys, ["pohozaev", "--n", "3", "--gamma", "0.5", "--p", "1.9"])
    assert code == 2

    for flags, advice in ((["--kappa", "0.3"], "drop --kappa"), (["--p", "1.8"], "drop --p")):
        code, out = _run(capsys, ["verify-bubble", "--n", "3", "--gamma", "0.5", *flags])
        assert code == 2
        assert json.loads(out)["message"].endswith(advice)

    code, out = _run(
        capsys,
        ["frobenius", "--n", "3", "--gamma", "0.5", "--input", "/nope/missing.csv"],
    )
    assert code == 2
    assert "not found" in json.loads(out)["message"]

    base = ["greens", "--n", "3", "--gamma", "0.5"]
    for flags, message in (
        (["--tolerance", "0"], "tolerance must be positive, got 0.0"),
        (["--truncation", "0"], "truncation must be at least 1, got 0"),
        (["--t-min", "5", "--t-max", "5"], "grid [5.0, 5.0] with step 0.0078125 is empty"),
        (["--t-max", "0.001"], "t_max must be at least one step for greens"),
    ):
        code, out = _run(capsys, base + flags)
        assert code == 2
        assert json.loads(out) == {
            "command": "greens", "error": "ValidationError", "message": message
        }

    with pytest.raises(SystemExit) as info:
        main(["symbol", "--n", "3"])
    assert info.value.code == 2


def test_grid_csv_matches_cli_body(tmp_path):
    # GridFunction.to_csv and the CLI write one CSV layout with LF ends.
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(65) + 1j * rng.standard_normal(65)
    g = GridFunction(t_min=-1.0, t_max=1.0, step=2.0**-5, samples=vals)
    path = tmp_path / "g.csv"
    g.to_csv(path, metadata={"kind": "test"})
    raw = path.read_bytes()
    assert b"\r" not in raw
    args = cli._build_parser().parse_args(
        ["greens", "--n", "3", "--gamma", "0.5", "--format", "csv"]
    )
    text = cli._render(cli._resolve(args), cli.JobResult(grid=g))
    assert raw.decode().split("\n", 1)[1] == text.split("\n", 1)[1]
    assert raw.decode().split("\n", 2)[1] == "t,re,im"


_ECHO_SHARED = {
    "command", "format", "gamma", "kappa", "mode", "n", "p", "step", "t_max", "t_min",
    "tolerance", "truncation",
}
_ECHO_OWN = {
    "symbol": ([], {"xi"}),
    "poles": ([], {"count"}),
    "greens": ([], set()),
    "solve-linear": (["--source", "h.csv"], {"source"}),
    "solve-profile": ([], {"guess", "max_iterations"}),
    "verify-bubble": ([], set()),
    "pohozaev": ([], {"input"}),
    "wronskian": (["--source", "h.csv", "--source-tilde", "h2.csv"], {"source", "source_tilde"}),
    "frobenius": (["--input", "w.csv"], {"input", "use_roots", "window"}),
}


@pytest.mark.parametrize("command", sorted(_ECHO_OWN))
def test_config_echo_keys(command):
    # The artifact's config echo holds the shared flags, p resolved and each
    # subcommand's own flags, and nothing else: no output path, no params.
    flags, own = _ECHO_OWN[command]
    args = cli._build_parser().parse_args([command, "--n", "3", "--gamma", "0.5", *flags])
    doc = json.loads(cli._render(cli._resolve(args), cli.JobResult()))
    config = doc["metadata"]["config"]
    assert set(config) == _ECHO_SHARED | own
    assert config["p"] == 2.0 and config["format"] == "json"


def test_import_leaves_scipy_signal_unloaded():
    # `import cylspec` loads numpy and scipy.special; the rest of scipy
    # loads in the call that needs it, and neither the tail fit nor the
    # Pohozaev check needs any of it.
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        import cylspec
        heavy = ("scipy.signal", "scipy.optimize", "scipy.sparse", "scipy.fft")
        loaded = [name for name in heavy if name in sys.modules]
        assert not loaded, loaded
        w = cylspec.GridFunction.from_callable(
            lambda t: np.exp(-0.8 * np.abs(t)) * np.cos(1.7 * t) + 0j
        )
        fit = cylspec.frobenius_fit(w)
        assert abs(fit.sigma - 0.8) < 1e-6 and abs(fit.tau - 1.7) < 1e-6
        assert "scipy.optimize" not in sys.modules
        # The per-root components are numpy sweeps, not FFT convolutions.
        params = cylspec.CylinderParams(n=3, gamma=0.5)
        scale = cylspec.cylinder_constant(params)
        bubble = cylspec.GridFunction.from_callable(
            lambda t: scale * cylspec.bubble(params, t) + 0j
        )
        cylspec.pohozaev_check(params, bubble)
        assert "scipy.fft" not in sys.modules
        """
    )
    _, env = _entry_point()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _entry_point():
    """The installed ``cylspec`` script, else ``python -m cylspec``.

    The child's ``PYTHONPATH`` starts with the directory holding the
    imported package, so it runs the same code as this process.
    """
    script = shutil.which("cylspec")
    command = [script] if script else [sys.executable, "-m", "cylspec"]
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cylspec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])
    )
    return command, env


def test_console_script_byte_identical():
    command, env = _entry_point()
    argv = command + ["symbol", "--n", "3", "--gamma", "0.5", "--xi", "0.7", "1.1"]
    first = subprocess.run(argv, capture_output=True, text=True, env=env)
    second = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    doc = json.loads(first.stdout)
    assert len(doc["theta_re"]) == 2
