"""Quick tests of the benchmark itself.

    python3 -m pytest bench/tests -q

Each workload runs one round at reduced size and must pass its checks;
then each kind of check must reject a deliberately corrupted output, so
the checks can fail and are not copies of today's output.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def sweep():
    cases = [(3, 0.5, 0.3, 0, "stable"), (4, 0.6, 0.0, 1, "zero")]
    wl = W.SpectralSweep(seed=5, cases=cases, oracle_t=(2.0,))
    ops = W.Ops()
    return wl, ops, wl.run_round(wl.prepare(0), ops)


@pytest.fixture(scope="module")
def profile():
    wl = W.ProfileNewton(seed=5, cases=[(3, 0.5, 0.0)])
    ops = W.Ops()
    return wl, ops, wl.run_round(wl.prepare(0), ops)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("cli"))
    keep = ("symbol.json", "poles.json", "poles-repeat.json")
    wl = W.CliPipeline(seed=5, workdir=workdir, src=os.path.join(ROOT, "src"))
    jobs = [job for job in wl.prepare(0) if job[0] in keep]
    ops = W.Ops()
    return wl, ops, wl.run_round(jobs, ops)


@pytest.mark.parametrize("name", ["sweep", "profile", "cli"])
def test_reduced_round_passes(name, request):
    wl, ops, out = request.getfixturevalue(name)
    assert ops.attempted > 0 and ops.failed == 0, ops.errors
    assert wl.check(out) == []


def _moved(roots, j, by):
    out = [W._Root(r.sigma, r.tau) for r in roots]
    out[j] = W._Root(out[j].sigma + by, out[j].tau)
    return out


def test_root_moved_by_1e6_is_rejected(sweep):
    _, _, out = sweep
    for rec in out["cases"]:
        roots = rec["series"].roots
        assert W.check_roots(rec["params"], rec["mode"], roots, rec["regime"]) == []
        moved = _moved(roots, 0, 1e-6)
        assert W.check_roots(rec["params"], rec["mode"], moved, rec["regime"]) != []


def test_profile_scaled_by_1_01_is_rejected(profile):
    _, _, out = profile
    for rec in out:
        w = rec["report"].solution.samples.real
        assert W.check_profile(rec["params"], rec["step"], w) == []
        assert W.check_profile(rec["params"], rec["step"], 1.01 * w) != []


def test_flipped_byte_in_cli_artifact_is_rejected(cli):
    _, _, out = cli
    assert W.check_cli_round(out) == []
    for name in ("poles-repeat.json", "symbol.json"):
        raw = bytearray(out[name]["bytes"])
        at = raw.index(b'"theta_re": [' if name == "symbol.json" else b'"sigma": ')
        at += raw[at:].index(b"0")  # a digit of the first value after the key
        raw[at] ^= 0x01
        bad = {**out, name: {**out[name], "bytes": bytes(raw)}}
        assert W.check_cli_round(bad) != [], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    skip = shutil.ignore_patterns("__pycache__", ".work", "results")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spectral_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_library_exception_is_a_failed_operation():
    ops = W.Ops()
    assert ops.call("x", lambda: 1.0 / 0.0) is None
    assert (ops.attempted, ops.failed) == (1, 1)
    assert ops.errors == ["x: ZeroDivisionError: float division by zero"]


def test_reference_work_follows_every_operation():
    seen = []
    ops = W.Ops(after=seen.append)
    ops.call("ok", lambda: None)
    ops.call("bad", lambda: 1.0 / 0.0)
    assert len(seen) == 2 and all(d >= 0.0 for d in seen)


@pytest.mark.parametrize("child", [False, True])
def test_reference_units_run(child):
    speed = hostspeed.HostSpeed(child=child)
    speed.run()
    mark = speed.mark()
    speed.run()
    speed.run()
    assert speed.units == 3 and speed.cpu > 0.0
    # Counted from the mark: the last two units' CPU time is two nominal units.
    assert speed.reference_s(speed.cpu - mark[0], mark) == pytest.approx(2 * speed.nominal_s)


def test_inputs_depend_only_on_seed():
    a = W.SpectralSweep(seed=9).prepare(2)
    b = W.SpectralSweep(seed=9).prepare(2)
    c = W.SpectralSweep(seed=10).prepare(2)
    for (pa, _, _, sa), (pb, _, _, sb), (pc, _, _, _) in zip(a, b, c):
        assert pa == pb and pa != pc
        for ha, hb in zip(sa, sb):
            assert np.array_equal(ha.samples, hb.samples)
