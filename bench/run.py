"""cylspec benchmark: run one workload with one seed and print its metrics.

    python3 bench/run.py --workload spectral_sweep --seed 1 --seconds 20 --trace 0

Set-up time, the CPU time of a fresh worker process up to its first timed
call, is measured in several of them and reported as their median; the
last of them runs the workload.  ``workload_s`` is the median CPU time of
a round; both are in reference time (``hostspeed.py``).  The plain CPU and
wall times of a round are printed as ``workload_cpu_s`` and
``workload_wall_s``.  With ``--trace 0`` the result holds the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.  The
last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--record FILE`` also appends the full measurement, stage timings
included, to FILE as one JSON line; ``bench/compare.py`` compares two
such files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("spectral_sweep", "profile_newton", "cli_pipeline")
SETUP_SAMPLES = 3  # fresh processes per run whose set-up time is measured
# The whole run, set-up samples included, must end within this many seconds
# plus --seconds times this factor: room for set-up, checks and the round
# still running when --seconds is reached.
DEADLINE_FIXED_S = 100.0
DEADLINE_PER_RUN_SECOND = 3.0
# One thread per BLAS/OpenMP pool, in the worker and in the children it
# starts, so that CPU time counts one thread's work.  Left to itself
# OpenBLAS runs a second thread in the Newton-GMRES solves, which made no
# profile_newton round faster but added about 70% to its CPU time.
SINGLE_THREAD = {name: "1" for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _spawn_worker(args, workdir, setup_only, deadline):
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, **SINGLE_THREAD),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the full measurement here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cylspec", "__init__.py")):
        return _fail(f"no cylspec sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    deadline = time.monotonic() + DEADLINE_FIXED_S + DEADLINE_PER_RUN_SECOND * args.seconds
    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = [
            _spawn_worker(args, workdir, True, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        raw = _spawn_worker(args, workdir, False, deadline)
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, IndexError) as exc:
        return _fail(f"{args.workload}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    setup.append(raw["setup_s"])

    measured = {
        "setup_s": statistics.median(setup),
        "workload_s": statistics.median(raw["round_ref_s"]),
        "workload_cpu_s": statistics.median(raw["round_cpu_s"]),
        "workload_wall_s": statistics.median(raw["round_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    if args.trace:
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": raw["layers"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in wanted}
    else:
        wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    for line in raw["errors"] + raw["check_failures"]:
        print(f"bench: {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(raw['round_s'])} "
          f"attempted={raw['attempted']} failed={raw['failed']}")
    for name, value in sorted({**measured, **raw["stages"]}.items()):
        if value is not None:
            print(f"  {name:24s} {value:.6g} {'MB' if name == 'peak_rss_mb' else 's'}")
    result = {
        "correct": not raw["check_failures"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "setup_samples": setup, **raw, **result,
                  "end_to_end": measured}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
