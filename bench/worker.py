"""Run one workload in a fresh process and print its raw measurements.

Set-up time is this process's CPU time up to the first timed call:
interpreter start, ``import cylspec`` and input generation.  Each round
is timed by wall clock and by CPU time, that of this process plus that of
the child processes it waited for (the CLI jobs).  CPU time leaves out
the time the process waits for a processor.  ``hostspeed`` reference
work, run after set-up and after every timed operation, gives both in
reference time as well (``setup_s``, ``round_ref_s``).  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed, SETUP_JOBS, cpu_seconds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def import_times():
    """Cumulative import time of cylspec and scipy.signal, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cylspec"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("cylspec", "scipy.signal"):
            found[f"import.{parts[2]}_s"] = int(parts[1]) * 1e-6
    return found


def replay_cli(wl, jobs):
    """Run one round of CLI jobs in this process, with the tracer on.

    ``jobs`` is the outputs of the last timed round.  Gives the in-process
    time of ``cylspec.cli.main`` for the same argv, so that child wall time
    minus it is the process overhead.
    """
    import cylspec.cli

    overhead = []
    cwd = os.getcwd()
    os.chdir(wl.workdir)
    try:
        for name, rec in jobs.items():
            t0 = time.perf_counter()
            cylspec.cli.main([*rec["argv"], "--output", "replay-" + name])
            inside = time.perf_counter() - t0
            if rec["wall"] is not None:
                overhead.append(rec["wall"] - inside)
    finally:
        os.chdir(cwd)
    return {
        "cli.process_overhead_s": statistics.mean(overhead),
        "cli.artifact_bytes": sum(len(rec.get("bytes", b"")) for rec in jobs.values()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads

    if args.workload == "spectral_sweep":
        wl = workloads.SpectralSweep(args.seed)
    elif args.workload == "profile_newton":
        wl = workloads.ProfileNewton(args.seed)
    else:
        wl = workloads.CliPipeline(args.seed, args.workdir, SRC)
    inputs = wl.prepare(0)
    setup_cpu_s = time.process_time()
    setup_speed = HostSpeed(child=True)
    for _ in range(SETUP_JOBS):
        setup_speed.run()
    setup_s = setup_speed.reference_s(setup_cpu_s)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    speed = HostSpeed(child=args.workload == "cli_pipeline")
    ops = workloads.Ops(after=speed.after_operation)
    elapsed = 0.0
    round_s = []
    round_cpu_s = []
    round_ref_s = []
    failures = []
    while True:
        mark = speed.mark()
        t0, c0 = time.perf_counter(), cpu_seconds()
        out = wl.run_round(inputs, ops)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        elapsed += wall
        # The round's own times, without the reference units run inside it.
        round_s.append(wall - (speed.wall - mark[2]))
        round_cpu_s.append(cpu - (speed.cpu - mark[0]))
        round_ref_s.append(speed.reference_s(round_cpu_s[-1], mark))
        # Checked outside the timed round, then dropped: peak memory holds
        # one round's outputs whatever the number of rounds.
        failures += wl.check(out)
        if elapsed >= args.seconds:  # rounds and their reference units, checks left out
            break
        del out
        inputs = wl.prepare(len(round_s))

    if args.workload == "cli_pipeline":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = {}
    if tracer is not None:
        extra = replay_cli(wl, out) if args.workload == "cli_pipeline" else {}
        tracer.uninstall()
        # CLI layer numbers come from one replayed round; library ones from every round.
        per = 1 if args.workload == "cli_pipeline" else len(round_s)
        layers = {key + ".self_s": v / per for key, v in tracer.self_s.items()}
        layers.update({key: v / per for key, v in tracer.counts.items()})
        layers.update(extra)
        layers.update(import_times())

    print(json.dumps({
        "setup_s": setup_s,
        "round_s": round_s,
        "round_cpu_s": round_cpu_s,
        "round_ref_s": round_ref_s,
        "setup_cpu_s": setup_cpu_s,
        "reference_unit_s": speed.cpu / speed.units,
        "setup_reference_unit_s": setup_speed.cpu / setup_speed.units,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "check_failures": failures,
        "peak_rss_mb": peak_kb / 1024.0,
        "stages": wl.stage_metrics(ops),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
